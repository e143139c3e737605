//! GDSII stream writer.

use super::real::encode_real8;
use super::records::{GdsError, RecordType};
use crate::{LayerId, Layout};
use std::io::Write;
use std::path::Path;

/// Serialises a layout into a GDSII byte stream.
///
/// The layout becomes one library containing one structure; each polygon is
/// written as a `BOUNDARY` with `DATATYPE` 0. Coordinates are database units
/// of 1 nm.
///
/// # Errors
///
/// Returns [`GdsError::BadBoundary`] if a polygon coordinate does not fit in
/// the 32-bit signed range GDSII mandates, [`GdsError::LayerOutOfRange`] for
/// a layer number above 32767, and [`GdsError::RecordTooLong`] when a name
/// or a polygon does not fit in one record.
pub fn write_bytes(layout: &Layout) -> Result<Vec<u8>, GdsError> {
    let mut buf = Vec::with_capacity(4096);
    // Twelve i16 timestamp fields (modification + access); fixed epoch
    // values keep output deterministic.
    let timestamps = [0u8; 24];

    put_record(&mut buf, RecordType::Header, &600i16.to_be_bytes())?; // release 6
    put_record(&mut buf, RecordType::BgnLib, &timestamps)?;
    put_string(&mut buf, RecordType::LibName, layout.name())?;
    // User units per db unit, then metres per db unit.
    let units = [encode_real8(0.001), encode_real8(1e-9)].concat();
    put_record(&mut buf, RecordType::Units, &units)?;

    put_record(&mut buf, RecordType::BgnStr, &timestamps)?;
    put_string(&mut buf, RecordType::StrName, layout.name())?;

    for layer in layout.layers() {
        for polygon in layout.polygons(layer) {
            write_boundary(&mut buf, layer, polygon.vertices())?;
        }
    }

    put_record(&mut buf, RecordType::EndStr, &[])?;
    put_record(&mut buf, RecordType::EndLib, &[])?;
    Ok(buf)
}

/// Writes the layout to a `.gds` file.
///
/// # Errors
///
/// Propagates serialisation errors and I/O failures.
pub fn write_file(layout: &Layout, path: impl AsRef<Path>) -> Result<(), GdsError> {
    let bytes = write_bytes(layout)?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

fn write_boundary(
    buf: &mut Vec<u8>,
    layer: LayerId,
    vertices: &[hotspot_geom::Point],
) -> Result<(), GdsError> {
    // `LAYER` is a signed 16-bit field and readers reject negative layers.
    let number = i16::try_from(layer.number()).map_err(|_| GdsError::LayerOutOfRange(layer))?;
    put_record(buf, RecordType::Boundary, &[])?;
    put_record(buf, RecordType::Layer, &number.to_be_bytes())?;
    put_record(buf, RecordType::DataType, &0i16.to_be_bytes())?;
    // XY: each vertex as two i32s, with the first vertex repeated at the end
    // to close the loop (GDSII convention). The record length caps it at
    // (65534 - 4) / 8 = 8191 vertices — far above any rectilinear clip
    // polygon we produce.
    let mut xy = Vec::with_capacity((vertices.len() + 1) * 8);
    for v in vertices.iter().chain(std::iter::once(&vertices[0])) {
        xy.extend_from_slice(&to_i32(v.x)?.to_be_bytes());
        xy.extend_from_slice(&to_i32(v.y)?.to_be_bytes());
    }
    put_record(buf, RecordType::Xy, &xy)?;
    put_record(buf, RecordType::EndEl, &[])
}

fn to_i32(v: i64) -> Result<i32, GdsError> {
    i32::try_from(v).map_err(|_| {
        GdsError::BadBoundary(format!("coordinate {v} outside the 32-bit GDSII range"))
    })
}

/// Appends one record: u16 total length, u16 type code, payload. The
/// length counts the 4-byte header, so a payload above 65531 bytes does
/// not fit.
fn put_record(buf: &mut Vec<u8>, rt: RecordType, payload: &[u8]) -> Result<(), GdsError> {
    let length = payload.len() + 4;
    let header =
        u16::try_from(length).map_err(|_| GdsError::RecordTooLong { record: rt, length })?;
    buf.extend_from_slice(&header.to_be_bytes());
    buf.extend_from_slice(&rt.code().to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Appends an ASCII string record, padded to even length per the spec.
fn put_string(buf: &mut Vec<u8>, rt: RecordType, s: &str) -> Result<(), GdsError> {
    let mut bytes = s.as_bytes().to_vec();
    if !bytes.len().is_multiple_of(2) {
        bytes.push(0);
    }
    put_record(buf, rt, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::Rect;

    #[test]
    fn stream_starts_with_header_record() {
        let layout = Layout::new("t");
        let bytes = write_bytes(&layout).unwrap();
        assert_eq!(&bytes[0..4], &[0x00, 0x06, 0x00, 0x02]);
    }

    #[test]
    fn stream_ends_with_endlib() {
        let layout = Layout::new("t");
        let bytes = write_bytes(&layout).unwrap();
        let n = bytes.len();
        assert_eq!(&bytes[n - 4..], &[0x00, 0x04, 0x04, 0x00]);
    }

    #[test]
    fn coordinates_out_of_i32_range_error() {
        let mut layout = Layout::new("t");
        layout.add_rect(
            LayerId::new(1),
            Rect::from_extents(0, 0, i64::from(i32::MAX) + 10, 10),
        );
        assert!(matches!(
            write_bytes(&layout),
            Err(GdsError::BadBoundary(_))
        ));
    }

    #[test]
    fn odd_length_names_are_padded() {
        let layout = Layout::new("abc"); // 3 bytes -> padded to 4
        let bytes = write_bytes(&layout).unwrap();
        // LIBNAME record: length 8 (4 header + 4 padded payload).
        let pos = bytes
            .windows(2)
            .position(|w| w == [0x02, 0x06])
            .expect("libname record present");
        let len = u16::from_be_bytes([bytes[pos - 2], bytes[pos - 1]]);
        assert_eq!(len, 8);
    }

    #[test]
    fn names_too_long_for_one_record_error() {
        // 65530 bytes fill a record to 65534; 65531 pad to 65532 + 4.
        let fits = Layout::new("n".repeat(65_530));
        let back = crate::gdsii::read_bytes(&write_bytes(&fits).unwrap()).unwrap();
        assert_eq!(back.name(), fits.name());
        let long = Layout::new("n".repeat(65_531));
        assert!(matches!(
            write_bytes(&long),
            Err(GdsError::RecordTooLong {
                record: RecordType::LibName,
                length: 65_536
            })
        ));
    }

    #[test]
    fn layers_above_the_signed_range_error() {
        let rect = Rect::from_extents(0, 0, 10, 10);
        let mut top = Layout::new("t");
        top.add_rect(LayerId::new(32_767), rect);
        let back = crate::gdsii::read_bytes(&write_bytes(&top).unwrap()).unwrap();
        assert_eq!(back, top);
        let mut over = Layout::new("t");
        over.add_rect(LayerId::new(32_768), rect);
        assert!(matches!(
            write_bytes(&over),
            Err(GdsError::LayerOutOfRange(layer)) if layer == LayerId::new(32_768)
        ));
    }

    #[test]
    fn fixed_layout_stream_is_pinned() {
        // FNV-1a 64 of the whole stream of a fixed two-layer layout with an
        // odd-length name and negative coordinates: any change to record
        // framing, padding or field encoding moves it.
        let mut layout = Layout::new("pin");
        layout.add_rect(LayerId::new(1), Rect::from_extents(-120, 0, 300, 40));
        layout.add_rect(LayerId::new(1), Rect::from_extents(0, 100, 80, 900));
        layout.add_rect(LayerId::new(17), Rect::from_extents(-5_000, -7, 5_000, 7));
        let bytes = write_bytes(&layout).unwrap();
        let hash = bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((bytes.len(), hash), (298, 0x1a24_712e_fbef_2005));
    }

    #[test]
    fn deterministic_output() {
        let mut layout = Layout::new("t");
        layout.add_rect(LayerId::new(1), Rect::from_extents(0, 0, 10, 10));
        assert_eq!(write_bytes(&layout).unwrap(), write_bytes(&layout).unwrap());
    }
}
