//! Workload generators reproducing the CONN paper's experimental setup
//! (§5.1).
//!
//! The paper evaluates on a `[0, 10000]²` space with:
//!
//! * **CA** — 60,344 real California location points (non-uniform, clustered),
//! * **LA** — 131,461 street MBRs from Los Angeles (small, thin rectangles),
//! * **Uniform** and **Zipf (α = 0.8)** synthetic points,
//! * query segments with random anchor and orientation, length `ql` % of the
//!   space side.
//!
//! The real datasets are not redistributable here, so [`ca_like`] and
//! [`la_like`] generate synthetic stand-ins that preserve the properties the
//! experiments exercise — CA's clustered density skew, LA's dense field of
//! small elongated obstacles. The paper's cost metrics (NPE, NOE, |SVG|,
//! page faults) react to how many points and obstacles sit near a query
//! and how thin the obstacles are, not to which city they came from, so
//! matching cardinality, density skew and aspect ratio keeps the figures'
//! trends comparable. Obstacles are generated **disjoint**, and data points never
//! fall in obstacle interiors, matching the paper's stated conventions.
//!
//! Every generator is deterministic in its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod lookup;
pub mod obstacles;
pub mod points;
pub mod queries;

pub use batch::trajectory_routes;
pub use lookup::ObstacleLookup;
pub use obstacles::la_like;
pub use points::{ca_like, uniform_points, zipf_points};
pub use queries::{query_segment, query_segments};

use conn_geom::Rect;

/// The search space used throughout the paper's evaluation.
pub const SPACE: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 10_000.0,
    max_y: 10_000.0,
};

/// Side length of the search space.
pub const SPACE_SIDE: f64 = 10_000.0;

/// Cardinality of the paper's CA dataset (California location points).
pub const PAPER_CA_SIZE: usize = 60_344;

/// Cardinality of the paper's LA dataset (Los Angeles street MBRs).
pub const PAPER_LA_SIZE: usize = 131_461;

/// Paper default query length: 4.5 % of the space side.
pub const DEFAULT_QL: f64 = 0.045;

/// Paper default k for COkNN experiments.
pub const DEFAULT_K: usize = 5;

/// Dataset combination labels used by the figures (CL / UL / ZL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combo {
    /// (P, O) = (CA-like, LA-like)
    Cl,
    /// (P, O) = (Uniform, LA-like)
    Ul,
    /// (P, O) = (Zipf, LA-like)
    Zl,
}

impl Combo {
    /// Two-letter figure label for this combination.
    pub fn label(self) -> &'static str {
        match self {
            Combo::Cl => "CL",
            Combo::Ul => "UL",
            Combo::Zl => "ZL",
        }
    }

    /// Generates the data points of this combination (obstacle-aware).
    pub fn points(self, n: usize, seed: u64, obstacles: &[Rect]) -> Vec<conn_geom::Point> {
        match self {
            Combo::Cl => ca_like(n, seed, obstacles),
            Combo::Ul => uniform_points(n, seed, obstacles),
            Combo::Zl => zipf_points(n, 0.8, seed, obstacles),
        }
    }
}
