//! Geometry substrate for the CONN reproduction.
//!
//! Everything here is plain 2D computational geometry in `f64`:
//!
//! * [`Point`], [`Segment`], [`Rect`] — primitives with the distance metrics
//!   the query algorithms need (`mindist` between every pair of shapes).
//! * [`Interval`] / [`IntervalSet`] — exact interval algebra over the
//!   arclength parameter of a query segment; used for visible regions,
//!   control-point lists and result lists.
//! * [`solve_quadratic`] — a verified quadratic solver used by the split-point
//!   computation (Theorem 1 of the paper).
//!
//! The one domain-specific predicate is [`Rect::blocks`]: a segment is
//! blocked by an obstacle iff it passes through the obstacle's *open
//! interior*. Touching the boundary (sliding along a wall, grazing a corner)
//! does not block, which matches the paper's visibility definition
//! (Definition 1) and its convention that data points may lie on obstacle
//! boundaries but not inside them. [`SegProbe`] runs the same predicate
//! with the segment's share hoisted out, one rectangle at a time from
//! [`RectLanes`]; it is the one form the visibility substrate uses (see
//! [`batch`]).

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod approx;
pub mod batch;
mod interval;
mod point;
mod quadratic;
mod rect;
pub mod sanitize;
mod segment;

pub use approx::{approx_eq, approx_ge, approx_le, OrdF64, EPS};
pub use batch::{RectLanes, SegProbe};
pub use interval::{Interval, IntervalSet};
pub use point::Point;
pub use quadratic::solve_quadratic;
pub use rect::Rect;
pub use segment::Segment;
