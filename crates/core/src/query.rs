//! The typed query front door: one [`Query`] type for every family.
//!
//! The paper defines CONN/COkNN as one family of obstructed queries over a
//! shared substrate (R\*-trees, visibility graph, Dijkstra kernel).
//! [`Query`] puts every family behind a single request type the way a
//! database exposes one query interface over many plans:
//!
//! * a [`QueryKind`] variant per family — CONN, COkNN, snapshot ONN,
//!   obstructed range, point-to-point distance and route, and trajectory
//!   CONN/COkNN;
//! * **upfront validation**: [`QueryBuilder::build`] rejects NaN and
//!   infinite coordinates, degenerate segments, `k = 0` and negative radii
//!   with [`Error::InvalidQuery`] — inputs that historically panicked (or
//!   span) deep inside the family internals;
//! * a typed [`Answer`] enum (plus [`Response`] with the per-query
//!   [`QueryStats`]) replacing the ad-hoc tuple returns.
//!
//! Execution lives in [`crate::ConnService`]; a built [`Query`] is inert
//! data and can be cloned, stored and shipped across threads.

use conn_geom::{Point, Segment};

use crate::coknn::CoknnResult;
use crate::error::Error;
use crate::stats::QueryStats;
use crate::trajectory::{Trajectory, TrajectoryResult};
use crate::types::DataPoint;

/// The family a [`Query`] belongs to, with its parameters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum QueryKind {
    /// CONN (paper Algorithm 4): the obstructed NN of every point of `q`.
    Conn {
        /// The query segment.
        q: Segment,
    },
    /// COkNN (paper §4.5): the `k` obstructed NNs of every point of `q`.
    Coknn {
        /// The query segment.
        q: Segment,
        /// Neighbors per point.
        k: usize,
    },
    /// Snapshot obstructed kNN at a point.
    Onn {
        /// The query point.
        s: Point,
        /// Number of neighbors.
        k: usize,
    },
    /// All data points within obstructed distance `radius` of `s`.
    Range {
        /// The query point.
        s: Point,
        /// Obstructed-distance radius.
        radius: f64,
    },
    /// Point-to-point obstructed distance over the scene's obstacles.
    Odist {
        /// Path start.
        a: Point,
        /// Path end.
        b: Point,
    },
    /// Obstructed distance *and* shortest path polyline.
    Route {
        /// Path start.
        a: Point,
        /// Path end.
        b: Point,
    },
    /// Trajectory CONN (`k = 1`) or COkNN (`k > 1`) along a polyline.
    Trajectory {
        /// The polyline route.
        route: Trajectory,
        /// Neighbors per point (1 = CONN).
        k: usize,
    },
}

impl QueryKind {
    /// Short family label (diagnostics, telemetry).
    pub fn family(&self) -> &'static str {
        match self {
            QueryKind::Conn { .. } => "conn",
            QueryKind::Coknn { .. } => "coknn",
            QueryKind::Onn { .. } => "onn",
            QueryKind::Range { .. } => "range",
            QueryKind::Odist { .. } => "odist",
            QueryKind::Route { .. } => "route",
            QueryKind::Trajectory { .. } => "trajectory",
        }
    }
}

/// A validated request, ready for [`crate::ConnService::execute`].
///
/// Construct through the per-family builders ([`Query::conn`],
/// [`Query::coknn`], …) — [`QueryBuilder::build`] is the only way to obtain
/// a `Query`, so every instance a service sees has already passed
/// validation.
///
/// ```
/// use conn_core::Query;
/// use conn_geom::{Point, Segment};
///
/// let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
/// let query = Query::coknn(q, 3).build().unwrap();
/// assert_eq!(query.kind().family(), "coknn");
///
/// // malformed requests never reach an algorithm
/// let degenerate = Segment::new(Point::new(5.0, 5.0), Point::new(5.0, 5.0));
/// assert!(Query::conn(degenerate).build().is_err());
/// assert!(Query::coknn(q, 0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    kind: QueryKind,
}

impl Query {
    /// CONN over a query segment.
    pub fn conn(q: Segment) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Conn { q })
    }

    /// COkNN over a query segment.
    pub fn coknn(q: Segment, k: usize) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Coknn { q, k })
    }

    /// Snapshot obstructed kNN at `s`.
    pub fn onn(s: Point, k: usize) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Onn { s, k })
    }

    /// Obstructed range search around `s`.
    pub fn range(s: Point, radius: f64) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Range { s, radius })
    }

    /// Point-to-point obstructed distance.
    pub fn odist(a: Point, b: Point) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Odist { a, b })
    }

    /// Point-to-point obstructed distance plus the path itself.
    pub fn route(a: Point, b: Point) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Route { a, b })
    }

    /// Trajectory CONN (`k = 1`) / COkNN (`k > 1`) along `route`.
    pub fn trajectory(route: Trajectory, k: usize) -> QueryBuilder {
        QueryBuilder::new(QueryKind::Trajectory { route, k })
    }

    /// The validated family and parameters.
    pub fn kind(&self) -> &QueryKind {
        &self.kind
    }
}

/// Builder for [`Query`]: [`build`](QueryBuilder::build) validates the
/// request.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    kind: QueryKind,
}

fn finite(p: Point) -> bool {
    p.x.is_finite() && p.y.is_finite()
}

fn check_segment(q: &Segment, family: &str) -> Result<(), Error> {
    if !finite(q.a) || !finite(q.b) {
        return Err(Error::invalid_query(format!(
            "{family}: non-finite query segment endpoint"
        )));
    }
    if q.is_degenerate() {
        return Err(Error::invalid_query(format!(
            "{family}: degenerate (zero-length) query segment"
        )));
    }
    Ok(())
}

fn check_point(p: Point, family: &str, role: &str) -> Result<(), Error> {
    if !finite(p) {
        return Err(Error::invalid_query(format!("{family}: non-finite {role}")));
    }
    Ok(())
}

fn check_k(k: usize, family: &str) -> Result<(), Error> {
    if k == 0 {
        return Err(Error::invalid_query(format!(
            "{family}: k must be at least 1"
        )));
    }
    Ok(())
}

impl QueryBuilder {
    fn new(kind: QueryKind) -> Self {
        QueryBuilder { kind }
    }

    /// Validates the request. Malformed parameters — the inputs that used
    /// to panic (or loop) deep inside the family internals — come back as
    /// [`Error::InvalidQuery`] instead.
    pub fn build(self) -> Result<Query, Error> {
        let family = self.kind.family();
        match &self.kind {
            QueryKind::Conn { q } => check_segment(q, family)?,
            QueryKind::Coknn { q, k } => {
                check_segment(q, family)?;
                check_k(*k, family)?;
            }
            QueryKind::Onn { s, k } => {
                check_point(*s, family, "query point")?;
                check_k(*k, family)?;
            }
            QueryKind::Range { s, radius } => {
                check_point(*s, family, "query point")?;
                if !radius.is_finite() || *radius < 0.0 {
                    return Err(Error::invalid_query(format!(
                        "{family}: radius must be finite and non-negative (got {radius})"
                    )));
                }
            }
            QueryKind::Odist { a, b } | QueryKind::Route { a, b } => {
                check_point(*a, family, "source point")?;
                check_point(*b, family, "target point")?;
            }
            QueryKind::Trajectory { route, k } => {
                check_k(*k, family)?;
                // Trajectory construction already validates length and
                // degeneracy; re-check the cheap invariants in place so a
                // Trajectory built before a future unchecked constructor
                // still cannot slip through (no clone, no re-derivation).
                if route.vertices().len() < 2 {
                    return Err(Error::invalid_query(format!(
                        "{family}: trajectory needs at least two vertices"
                    )));
                }
                for v in route.vertices() {
                    check_point(*v, family, "trajectory vertex")?;
                }
            }
        }
        Ok(Query { kind: self.kind })
    }
}

/// The typed answer of one executed [`Query`], one variant per family.
///
/// The per-family accessors (`as_conn`, `neighbors`, `distance`, …) return
/// `None` when called on the wrong family, so call sites that know what
/// they asked for can unwrap without matching the whole enum.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Answer {
    /// CONN result list: the `k = 1` COkNN list.
    Conn(CoknnResult),
    /// COkNN result list.
    Coknn(CoknnResult),
    /// Snapshot ONN: `(point, obstructed distance)` ascending.
    Onn(Vec<(DataPoint, f64)>),
    /// Range search: `(point, obstructed distance)` ascending.
    Range(Vec<(DataPoint, f64)>),
    /// Obstructed distance (∞ when unreachable).
    Odist(f64),
    /// Obstructed distance plus the path polyline (`None` when
    /// unreachable).
    Route {
        /// Obstructed distance (∞ when unreachable).
        dist: f64,
        /// The shortest path polyline (`None` when unreachable).
        path: Option<Vec<Point>>,
    },
    /// Trajectory CONN / COkNN at any `k`: the legs' result lists stitched
    /// into one over cumulative arclength.
    Trajectory(TrajectoryResult),
}

impl Answer {
    /// Short family label of this answer (diagnostics, telemetry).
    pub fn family(&self) -> &'static str {
        match self {
            Answer::Conn(_) => "conn",
            Answer::Coknn(_) => "coknn",
            Answer::Onn(_) => "onn",
            Answer::Range(_) => "range",
            Answer::Odist(_) => "odist",
            Answer::Route { .. } => "route",
            Answer::Trajectory(_) => "trajectory",
        }
    }

    /// The CONN result (a `k = 1` [`CoknnResult`]), if this is a
    /// [`Answer::Conn`].
    pub fn as_conn(&self) -> Option<&CoknnResult> {
        match self {
            Answer::Conn(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the CONN result, if this is a [`Answer::Conn`].
    pub fn into_conn(self) -> Option<CoknnResult> {
        match self {
            Answer::Conn(r) => Some(r),
            _ => None,
        }
    }

    /// The COkNN result, if this is a [`Answer::Coknn`].
    pub fn as_coknn(&self) -> Option<&CoknnResult> {
        match self {
            Answer::Coknn(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the COkNN result, if this is a [`Answer::Coknn`].
    pub fn into_coknn(self) -> Option<CoknnResult> {
        match self {
            Answer::Coknn(r) => Some(r),
            _ => None,
        }
    }

    /// The `(point, distance)` list of a point-anchored family
    /// ([`Answer::Onn`] or [`Answer::Range`]).
    pub fn neighbors(&self) -> Option<&[(DataPoint, f64)]> {
        match self {
            Answer::Onn(v) | Answer::Range(v) => Some(v),
            _ => None,
        }
    }

    /// The obstructed distance of an [`Answer::Odist`] or
    /// [`Answer::Route`].
    pub fn distance(&self) -> Option<f64> {
        match self {
            Answer::Odist(d) | Answer::Route { dist: d, .. } => Some(*d),
            _ => None,
        }
    }

    /// The path polyline of a reachable [`Answer::Route`].
    pub fn path(&self) -> Option<&[Point]> {
        match self {
            Answer::Route {
                path: Some(path), ..
            } => Some(path),
            _ => None,
        }
    }

    /// The stitched trajectory result, if this is an
    /// [`Answer::Trajectory`].
    pub fn as_trajectory(&self) -> Option<&TrajectoryResult> {
        match self {
            Answer::Trajectory(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes into the trajectory result, if this is an
    /// [`Answer::Trajectory`].
    pub fn into_trajectory(self) -> Option<TrajectoryResult> {
        match self {
            Answer::Trajectory(r) => Some(r),
            _ => None,
        }
    }
}

/// One executed query: the typed [`Answer`] plus the paper's per-query
/// metrics.
#[derive(Debug, Clone)]
#[must_use]
pub struct Response {
    /// The typed answer.
    pub answer: Answer,
    /// Per-query metrics: this query's own work and tree I/O, on every
    /// path through the service.
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Rect;

    fn seg() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    fn assert_invalid(b: QueryBuilder, needle: &str) {
        match b.build() {
            Err(Error::InvalidQuery(reason)) => {
                assert!(reason.contains(needle), "{reason:?} missing {needle:?}")
            }
            other => panic!("expected InvalidQuery({needle}), got {other:?}"),
        }
    }

    #[test]
    fn degenerate_and_nan_segments_are_rejected() {
        let z = Point::new(5.0, 5.0);
        assert_invalid(Query::conn(Segment::new(z, z)), "degenerate");
        // NaN/∞ segments bypass Segment::new (it debug-asserts) the way a
        // release-mode caller could; build() must still catch them
        let nan = Segment {
            a: Point {
                x: f64::NAN,
                y: 0.0,
            },
            b: z,
        };
        assert_invalid(Query::conn(nan), "non-finite");
        let inf = Segment {
            a: z,
            b: Point {
                x: f64::INFINITY,
                y: 0.0,
            },
        };
        assert_invalid(Query::coknn(inf, 2), "non-finite");
        assert!(Query::conn(seg()).build().is_ok());
    }

    #[test]
    fn zero_k_is_rejected_everywhere() {
        assert_invalid(Query::coknn(seg(), 0), "k must be at least 1");
        assert_invalid(Query::onn(Point::new(0.0, 0.0), 0), "k must be at least 1");
        let route = Trajectory::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        assert_invalid(Query::trajectory(route, 0), "k must be at least 1");
    }

    #[test]
    fn bad_radii_and_points_are_rejected() {
        let s = Point::new(1.0, 2.0);
        assert_invalid(Query::range(s, -1.0), "non-negative");
        assert_invalid(Query::range(s, f64::NAN), "finite");
        assert_invalid(
            Query::range(
                Point {
                    x: f64::NAN,
                    y: 0.0,
                },
                5.0,
            ),
            "non-finite",
        );
        assert_invalid(
            Query::onn(
                Point {
                    x: 0.0,
                    y: f64::INFINITY,
                },
                1,
            ),
            "non-finite",
        );
        assert_invalid(
            Query::odist(
                Point {
                    x: f64::NAN,
                    y: 0.0,
                },
                s,
            ),
            "non-finite",
        );
        assert_invalid(
            Query::route(
                s,
                Point {
                    x: 0.0,
                    y: f64::NAN,
                },
            ),
            "non-finite",
        );
        assert!(Query::range(s, 0.0).build().is_ok(), "zero radius is legal");
    }

    #[test]
    fn invalid_trajectories_are_rejected_by_try_new() {
        assert!(Trajectory::try_new(vec![Point::new(0.0, 0.0)]).is_err());
        assert!(Trajectory::try_new(vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)]).is_err());
        assert!(Trajectory::try_new(vec![
            Point::new(0.0, 0.0),
            Point {
                x: f64::NAN,
                y: 1.0
            }
        ])
        .is_err());
        assert!(Trajectory::try_new(vec![Point::new(0.0, 0.0), Point::new(9.0, 1.0)]).is_ok());
    }

    #[test]
    fn answer_accessors_are_family_checked() {
        let a = Answer::Odist(42.0);
        assert_eq!(a.distance(), Some(42.0));
        assert!(a.as_conn().is_none());
        assert!(a.neighbors().is_none());
        let r = Answer::Route {
            dist: 5.0,
            path: Some(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]),
        };
        assert_eq!(r.distance(), Some(5.0));
        assert_eq!(r.path().unwrap().len(), 2);
        assert_eq!(r.family(), "route");
        let n = Answer::Onn(vec![(DataPoint::new(0, Point::new(1.0, 1.0)), 2.0)]);
        assert_eq!(n.neighbors().unwrap().len(), 1);
        assert!(n.distance().is_none());
        let _ = Rect::new(0.0, 0.0, 1.0, 1.0); // keep the import honest
    }
}
