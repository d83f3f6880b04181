//! # conn — Continuous Obstructed Nearest Neighbor queries
//!
//! A full reproduction of *Gao & Zheng, "Continuous Obstructed Nearest
//! Neighbor Queries in Spatial Databases", SIGMOD 2009*: given data points
//! `P` and rectangular obstacles `O` in the plane and a query segment
//! `q = [S, E]`, report for **every** point of `q` its nearest data point
//! under the obstructed distance (shortest path avoiding all obstacle
//! interiors), as a list of `⟨point, interval⟩` tuples. The `COkNN`
//! generalization reports the `k` nearest per interval.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geom`] — points, segments, rectangles, interval sets;
//! * [`index`] — the disk-simulating R\*-tree (page counters, LRU buffer);
//! * [`vgraph`] — incremental local visibility graph and Dijkstra;
//! * [`datasets`] — paper-style workload generators;
//! * the **typed front door**: [`Scene`] (owns the indexed world),
//!   [`Query`] (one validated request type per family, `k = 0` / NaN /
//!   degenerate input rejected as [`Error::InvalidQuery`] before any
//!   algorithm runs) and [`ConnService`] (`execute` one query of any
//!   family, `execute_batch` a *mixed-family* workload across the worker
//!   pool; `pin` an epoch snapshot and open a streaming
//!   [`TrajectorySession`] on it);
//! * the **concurrent serving layer**: [`SceneEpoch`] / [`PinnedEpoch`]
//!   (lock-free scene sharing — readers pin immutable snapshots while
//!   `publish` installs the next world), [`ShardSpec`] (overlapping
//!   spatial tiles with a certificate-or-fallback merge), [`EnginePool`]
//!   (persistent warm workers) and [`Admission`] (front-door queue whose
//!   pump workers pull single queries one at a time and answer each
//!   ticket when its query ends, rejecting with [`Error::Overloaded`]
//!   under backpressure);
//! * the **live-scene layer**: [`LiveScene`] (in-place R\*-tree mutation
//!   published as cheap derived epochs, a [`SceneDelta`] per edit),
//!   standing queries ([`ConnService::register`] →
//!   [`StandingHandle`]) patched per delta under kinetic-style
//!   certificate regions with a [`PatchReport`] accounting for every
//!   kept / tuple-patched / recomputed answer;
//! * the serving internals: [`QueryEngine`] (reset-and-reuse workspace —
//!   answer many queries with O(1) substrate allocations; it also owns the
//!   page meters and LRU buffers its queries' tree I/O is counted on; the
//!   direct entry point of single-threaded figure code, the single-tree
//!   layout of §4.5 and `visible_knn`) and the [`BatchStats`] of
//!   [`ConnService::execute_batch`];
//! * [`baseline`] — the reference oracles (whole-field obstructed distance,
//!   brute-force OkNN, sampled / naive CONN) that tests and benches hold
//!   the served path against.
//!
//! ## Example
//!
//! ```
//! use conn::prelude::*;
//!
//! // three gas stations and one building between the highway and station 0
//! let stations = vec![
//!     DataPoint::new(0, Point::new(250.0, 220.0)),
//!     DataPoint::new(1, Point::new(400.0, 120.0)),
//!     DataPoint::new(2, Point::new(700.0, 180.0)),
//! ];
//! let buildings = vec![Rect::new(180.0, 90.0, 330.0, 160.0)];
//! let highway = Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));
//!
//! let service = ConnService::new(Scene::new(stations, buildings));
//! let response = service.execute(&Query::conn(highway).build()?)?;
//! let result = response.answer.as_conn().expect("conn answer");
//! for (station, interval) in result.segments() {
//!     println!("{station:?} is nearest along [{:.0}, {:.0}]", interval.lo, interval.hi);
//! }
//! assert!(response.stats.npe >= 1);
//!
//! // the same handle answers every family — kNN variant, point probes,
//! // ranges, reverse NN, routes, joins, whole trajectories:
//! let knn = service.execute(&Query::coknn(highway, 2).build()?)?;
//! assert!(!knn.answer.as_coknn().expect("coknn answer").entries().is_empty());
//! # Ok::<(), conn::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use conn_datasets as datasets;
pub use conn_geom as geom;
pub use conn_index as index;
pub use conn_vgraph as vgraph;

pub use conn_core::baseline;
pub use conn_core::{
    answers_equivalent, build_unified_tree, Admission, AdmissionConfig, Answer, BatchStats,
    CoknnResult, ConnConfig, ConnResult, ConnService, ControlPoint, DataPoint, EnginePool, Error,
    LiveScene, PatchReport, PinnedEpoch, Query, QueryBuilder, QueryEngine, QueryKind, QueryStats,
    Response, ResultEntry, ResultList, ReuseCounters, Scene, SceneDelta, SceneEpoch, Shard,
    ShardSet, ShardSpec, SpatialObject, StandingHandle, SweepMode, Ticket, Trajectory,
    TrajectoryCoknnSession, TrajectoryResult, TrajectorySession,
};

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use conn_core::{
        Admission, AdmissionConfig, Answer, BatchStats, CoknnResult, ConnConfig, ConnResult,
        ConnService, DataPoint, Error, LiveScene, PatchReport, PinnedEpoch, Query, QueryEngine,
        QueryStats, Response, ReuseCounters, Scene, SceneDelta, SceneEpoch, ShardSpec,
        StandingHandle, Ticket, Trajectory, TrajectorySession,
    };
    pub use conn_geom::{Interval, Point, Rect, Segment};
    pub use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};
}
