//! Topological classification and critical feature extraction.
//!
//! Implements Sections III-B and III-C of the paper:
//!
//! - [`dirstring`]: the four **directional strings** that encode a core
//!   pattern's topology, composite-string matching (Theorem 1), and a
//!   canonical [`TopoSignature`] for hash-based clustering,
//! - [`cluster`]: **density-based classification** — incremental clustering
//!   under the eq. (1) distance with the eq. (2) radius,
//! - [`tiling`]: horizontal/vertical dissection of a pattern window into
//!   block and space tiles,
//! - [`mtcg`]: the **modified transitive closure graph** (Fig. 6) built from
//!   the tilings by a sweep-line pass,
//! - [`features`]: **critical feature extraction** — internal, external,
//!   diagonal, and segment rule rectangles plus the five nontopological
//!   features (Figs. 7–8),
//! - [`multilayer`] and [`patterning`]: the Section IV extensions to
//!   multilayer patterns and double patterning,
//! - [`route`]: the **compiled admission router** — one copy of each
//!   kernel centroid with its mass and block sums, searched over the D8
//!   orientations through shared pixel permutations by an allocation-free
//!   pass per clip.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod dirstring;
pub mod features;
pub mod mtcg;
pub mod multilayer;
pub mod patterning;
pub mod route;
pub mod tiling;

pub use cluster::{Cluster, ClusterParams, DensityClustering};
pub use dirstring::{DirectionalStrings, TopoSignature};
pub use features::{CriticalFeatures, FeatureConfig, FeatureKind, RuleRect};
pub use mtcg::{EdgeKind, Mtcg};
pub use route::{Admission, CentroidRouter, RouteStats};
pub use tiling::{Tile, TileKind, Tiling};
