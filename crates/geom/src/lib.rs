//! Geometry primitives and distance functions for incremental distance joins.
//!
//! This crate provides the spatial vocabulary shared by every other crate in
//! the workspace:
//!
//! * [`Point`] and [`Rect`] in a const-generic dimension `D`,
//! * the [`Metric`] enum (Euclidean, Manhattan, Chessboard) together with the
//!   lower- and upper-bound distance functions the join algorithms need
//!   (MINDIST, MAXDIST and the MINMAXDIST bound of Roussopoulos et al.),
//! * the [`SpatialObject`] trait with ready-made [`Point`] and
//!   [`Segment`] implementations.
//!
//! All distance functions are *consistent* in the sense of Hjaltason & Samet
//! (SIGMOD 1998, §2.2): the distance of a pair is never smaller than the
//! distance of any pair it was generated from. The property tests in this
//! crate check exactly that.

pub mod kernels;
mod metric;
mod object;
mod ordf64;
mod point;
mod rect;
mod segment;

pub use kernels::SoaRects;
pub use metric::{KeySpace, Metric};
pub use object::SpatialObject;
pub use ordf64::OrdF64;
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;

/// Convenience alias for the two-dimensional points used in the paper's
/// evaluation.
pub type Point2 = Point<2>;
/// Convenience alias for two-dimensional rectangles.
pub type Rect2 = Rect<2>;

/// Relative/absolute tolerance used by the test suites when comparing
/// distances computed along different code paths.
pub const EPSILON: f64 = 1e-9;

/// Compares two `f64` values for approximate equality with a mixed
/// absolute/relative tolerance. Exposed so downstream test suites agree on
/// one definition.
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= EPSILON * a.abs().max(b.abs())
}
