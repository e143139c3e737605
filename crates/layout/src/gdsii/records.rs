//! GDSII record headers and the error type shared by reader and writer.

use crate::LayerId;
use std::fmt;

/// GDSII record types used by this implementation.
///
/// The two-byte discriminant is `record_type << 8 | data_type`, matching the
/// on-disk header layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum RecordType {
    Header = 0x0002,
    BgnLib = 0x0102,
    LibName = 0x0206,
    Units = 0x0305,
    EndLib = 0x0400,
    BgnStr = 0x0502,
    StrName = 0x0606,
    EndStr = 0x0700,
    Boundary = 0x0800,
    Path = 0x0900,
    Sref = 0x0A00,
    Aref = 0x0B00,
    Layer = 0x0D02,
    DataType = 0x0E02,
    Width = 0x0F03,
    Xy = 0x1003,
    EndEl = 0x1100,
    SName = 0x1206,
    ColRow = 0x1302,
    PathType = 0x2102,
    STrans = 0x1A01,
    Mag = 0x1B05,
    Angle = 0x1C05,
}

impl RecordType {
    /// Parses the two-byte record/data-type pair from a record header.
    pub fn from_code(code: u16) -> Option<RecordType> {
        Some(match code {
            0x0002 => RecordType::Header,
            0x0102 => RecordType::BgnLib,
            0x0206 => RecordType::LibName,
            0x0305 => RecordType::Units,
            0x0400 => RecordType::EndLib,
            0x0502 => RecordType::BgnStr,
            0x0606 => RecordType::StrName,
            0x0700 => RecordType::EndStr,
            0x0800 => RecordType::Boundary,
            0x0900 => RecordType::Path,
            0x0A00 => RecordType::Sref,
            0x0B00 => RecordType::Aref,
            0x0D02 => RecordType::Layer,
            0x0E02 => RecordType::DataType,
            0x0F03 => RecordType::Width,
            0x1003 => RecordType::Xy,
            0x1100 => RecordType::EndEl,
            0x1206 => RecordType::SName,
            0x1302 => RecordType::ColRow,
            0x2102 => RecordType::PathType,
            0x1A01 => RecordType::STrans,
            0x1B05 => RecordType::Mag,
            0x1C05 => RecordType::Angle,
            _ => return None,
        })
    }

    /// The two-byte header code.
    pub fn code(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Error reading or writing a GDSII stream.
///
/// Cursor-level variants carry the byte offset of the offending record
/// header ([`GdsError::offset`]), so a truncated or corrupted file can be
/// located without re-parsing.
#[derive(Debug)]
pub enum GdsError {
    /// The stream ended in the middle of a record (or before the library
    /// was complete).
    UnexpectedEof {
        /// Byte offset where the next record header was expected.
        offset: usize,
    },
    /// The stream ended inside an open structure or element.
    Unterminated {
        /// What was being read when the stream ran out.
        context: &'static str,
        /// Byte offset where the next record header was expected.
        offset: usize,
    },
    /// A record header declared an invalid length (< 4 or odd), or a
    /// fixed-size payload had the wrong length.
    BadRecordLength {
        /// The declared record length.
        length: u16,
        /// Byte offset of the record header.
        offset: usize,
    },
    /// An unknown or unsupported record type was encountered.
    UnsupportedRecord {
        /// The two-byte record/data-type code.
        code: u16,
        /// Byte offset of the record header.
        offset: usize,
    },
    /// A record appeared out of the expected sequence.
    UnexpectedRecord {
        /// The record that appeared.
        record: RecordType,
        /// What the reader was doing when it appeared.
        context: &'static str,
        /// Byte offset of the record header.
        offset: usize,
    },
    /// An `XY` record did not describe a closed rectilinear boundary.
    BadBoundary(String),
    /// A `PATH` element was malformed or non-Manhattan.
    BadPath(String),
    /// A reference named a structure the library does not define.
    UnknownStructure(String),
    /// Structure references nest deeper than the flattening limit
    /// (or form a cycle).
    RecursionLimit(String),
    /// A reference uses a transform this subset cannot flatten exactly
    /// (non-orthogonal angle or magnification ≠ 1).
    UnsupportedTransform(String),
    /// A string record contained invalid bytes.
    BadString,
    /// A record's payload does not fit the 16-bit length field (65535
    /// bytes, header included): a name or polygon too long to write.
    RecordTooLong {
        /// The record being written.
        record: RecordType,
        /// The length it would need, header included.
        length: usize,
    },
    /// A layer number above 32767 does not fit the signed 16-bit `LAYER`
    /// field.
    LayerOutOfRange(LayerId),
    /// An I/O error from the underlying file.
    Io(std::io::Error),
}

impl GdsError {
    /// The byte offset of the offending record header, for the
    /// cursor-level variants that know where in the stream they fired.
    pub fn offset(&self) -> Option<usize> {
        match self {
            GdsError::UnexpectedEof { offset }
            | GdsError::Unterminated { offset, .. }
            | GdsError::BadRecordLength { offset, .. }
            | GdsError::UnsupportedRecord { offset, .. }
            | GdsError::UnexpectedRecord { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

impl fmt::Display for GdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdsError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of GDSII stream at byte {offset}")
            }
            GdsError::Unterminated { context, offset } => {
                write!(
                    f,
                    "GDSII stream ended at byte {offset} while {context} (unterminated)"
                )
            }
            GdsError::BadRecordLength { length, offset } => {
                write!(f, "invalid GDSII record length {length} at byte {offset}")
            }
            GdsError::UnsupportedRecord { code, offset } => {
                write!(f, "unsupported GDSII record 0x{code:04X} at byte {offset}")
            }
            GdsError::UnexpectedRecord {
                record,
                context,
                offset,
            } => {
                write!(
                    f,
                    "unexpected GDSII record {record} at byte {offset} while {context}"
                )
            }
            GdsError::BadBoundary(msg) => write!(f, "invalid BOUNDARY element: {msg}"),
            GdsError::BadPath(msg) => write!(f, "invalid PATH element: {msg}"),
            GdsError::UnknownStructure(name) => {
                write!(f, "reference to unknown structure `{name}`")
            }
            GdsError::RecursionLimit(name) => {
                write!(f, "structure nesting too deep (or cyclic) at `{name}`")
            }
            GdsError::UnsupportedTransform(msg) => {
                write!(f, "unsupported reference transform: {msg}")
            }
            GdsError::BadString => write!(f, "invalid string payload in GDSII record"),
            GdsError::RecordTooLong { record, length } => {
                write!(
                    f,
                    "GDSII record {record} needs {length} bytes, over the 65535-byte limit"
                )
            }
            GdsError::LayerOutOfRange(layer) => {
                write!(
                    f,
                    "layer {} is above the GDSII maximum 32767",
                    layer.number()
                )
            }
            GdsError::Io(e) => write!(f, "gdsii i/o error: {e}"),
        }
    }
}

impl std::error::Error for GdsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GdsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GdsError {
    fn from(e: std::io::Error) -> Self {
        GdsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for rt in [
            RecordType::Header,
            RecordType::BgnLib,
            RecordType::LibName,
            RecordType::Units,
            RecordType::EndLib,
            RecordType::BgnStr,
            RecordType::StrName,
            RecordType::EndStr,
            RecordType::Boundary,
            RecordType::Layer,
            RecordType::DataType,
            RecordType::Xy,
            RecordType::EndEl,
        ] {
            assert_eq!(RecordType::from_code(rt.code()), Some(rt));
        }
    }

    #[test]
    fn unknown_code_is_none() {
        assert_eq!(RecordType::from_code(0xFFFF), None);
        assert_eq!(RecordType::from_code(0x0003), None);
    }

    #[test]
    fn error_display() {
        assert!(GdsError::UnexpectedEof { offset: 12 }
            .to_string()
            .contains("end of GDSII"));
        let unsupported = GdsError::UnsupportedRecord {
            code: 0x1234,
            offset: 40,
        };
        assert!(unsupported.to_string().contains("1234"));
        assert!(unsupported.to_string().contains("byte 40"));
        let unterminated = GdsError::Unterminated {
            context: "reading a BOUNDARY",
            offset: 8,
        };
        assert!(unterminated.to_string().contains("unterminated"));
    }

    #[test]
    fn offsets_are_carried_by_cursor_level_errors() {
        assert_eq!(GdsError::UnexpectedEof { offset: 3 }.offset(), Some(3));
        assert_eq!(
            GdsError::BadRecordLength {
                length: 5,
                offset: 16
            }
            .offset(),
            Some(16)
        );
        assert_eq!(
            GdsError::Unterminated {
                context: "x",
                offset: 9
            }
            .offset(),
            Some(9)
        );
        assert_eq!(GdsError::BadString.offset(), None);
        assert_eq!(GdsError::BadBoundary("x".into()).offset(), None);
    }
}
