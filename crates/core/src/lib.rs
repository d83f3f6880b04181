//! Continuous Obstructed Nearest Neighbor (CONN / COkNN) query processing.
//!
//! This crate implements the primary contribution of *Gao & Zheng,
//! "Continuous Obstructed Nearest Neighbor Queries in Spatial Databases",
//! SIGMOD 2009*: given a data-point set `P` and an obstacle set `O`, both
//! indexed by R\*-trees, and a query segment `q = [S, E]`, report for every
//! point of `q` its nearest data point under the **obstructed distance**
//! (shortest obstacle-avoiding path).
//!
//! ## Paper-to-module map
//!
//! The crate root re-exports the whole public API; every module but
//! [`baseline`] is private, so the map names source files.
//!
//! | Paper | Source file |
//! |---|---|
//! | control points (Def. 8/9) | `dist.rs` |
//! | split points, Thm. 1, Cases 1–4, Lemma 1 | `split.rs` |
//! | IOR — incremental obstacle retrieval (Alg. 1, Lemmas 3–4) | `ior.rs` |
//! | the one obstacle loader (a bounded `mindist` stream per anchor) and the point streams | `streams.rs` |
//! | CPLC — control-point-list computation (Alg. 2, Lemmas 5–7) | `cpl.rs` |
//! | RLU — one result list for every k, CONN's k = 1 included (Alg. 3, §4.5) | `rlu.rs` |
//! | CONN search (Alg. 4, Lemma 2), the one loop of every k | `conn.rs` |
//! | the answer of CONN and COkNN: ⟨p, cp, R⟩ is ⟨ONNS, R⟩ at k = 1 (Def. 6, §4.5) | `coknn.rs` |
//! | single unified R-tree variant (§4.5) | `single_tree.rs` |
//! | reference baselines and oracles (sampling, brute force, whole-field odist) | [`baseline`] |
//! | the point-anchored resolver: the loader at a point or a pair (Lemma 3 at a point) | `odist.rs` |
//! | reusable engine & per-query workspace (beyond the paper) | `engine.rs` |
//! | batch telemetry (beyond the paper) | `batch.rs` |
//! | trajectory CONN/COkNN (§6 future work) | `trajectory.rs` |
//! | streaming trajectory sessions (beyond the paper) | `session.rs` |
//! | typed `Query`/`Answer` front door (beyond the paper) | `query.rs` |
//! | `Scene` + `ConnService` execution handle (beyond the paper) | `service.rs` |
//! | epoch-snapshot scene publication (beyond the paper) | `epoch.rs` |
//! | live mutation, incremental adjacency, standing queries (beyond the paper) | `live.rs` |
//! | spatial shard tiling + locality certificate (beyond the paper) | `shard.rs` |
//! | persistent warm engine pool (beyond the paper) | `pool.rs` |
//! | admission queue: FIFO pump + backpressure (beyond the paper) | `admission.rs` |
//! | typed errors ([`enum@Error`]) | `error.rs` |
//!
//! ## Quick start
//!
//! The typed front door: a [`Scene`] owns the indexed world, a
//! [`ConnService`] executes validated [`Query`] values of any family.
//!
//! ```
//! use conn_core::{ConnService, DataPoint, Query, Scene};
//! use conn_geom::{Point, Rect, Segment};
//!
//! let scene = Scene::new(
//!     vec![
//!         DataPoint::new(0, Point::new(20.0, 60.0)),
//!         DataPoint::new(1, Point::new(80.0, 60.0)),
//!     ],
//!     vec![Rect::new(45.0, 30.0, 55.0, 70.0)],
//! );
//! let service = ConnService::new(scene);
//! let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
//!
//! let response = service.execute(&Query::conn(q).build()?)?;
//! let result = response.answer.as_conn().expect("conn answer");
//! assert!(!result.entries().is_empty());
//! assert!(response.stats.npe >= 1);
//! # Ok::<(), conn_core::Error>(())
//! ```
//!
//! [`ConnService::execute`] (and its batch and pinned-epoch variants) is the
//! one way to run a query. Underneath it, a [`QueryEngine`] serves
//! single-threaded figure and bench code directly and carries the one
//! family that has no [`QueryKind`]: the single-tree layout of §4.5.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// No panic in the query path; an infallible site says why in an `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::todo, clippy::unimplemented)]

mod admission;
pub mod baseline;
mod batch;
mod coknn;
mod config;
mod conn;
mod cpl;
mod dist;
mod engine;
mod epoch;
mod error;
mod ior;
mod live;
mod odist;
mod onn;
mod orange;
mod pool;
mod query;
mod rlu;
mod service;
mod session;
mod shard;
mod single_tree;
mod split;
mod stats;
mod streams;
mod trajectory;
mod types;

pub use admission::{Admission, AdmissionConfig, Ticket};
pub use batch::BatchStats;
pub use coknn::CoknnResult;
pub use config::{ConnConfig, KernelMode};
pub use conn_vgraph::SweepMode;
pub use dist::ControlPoint;
pub use engine::QueryEngine;
pub use epoch::{PinnedEpoch, SceneEpoch};
pub use error::Error;
pub use live::{answers_equivalent, LiveScene, PatchReport, SceneDelta, StandingHandle};
pub use pool::EnginePool;
pub use query::{Answer, Query, QueryBuilder, QueryKind, Response};
pub use service::{ConnService, Scene};
pub use session::TrajectorySession;
pub use shard::{Shard, ShardSet, ShardSpec};
pub use single_tree::{build_unified_tree, SpatialObject};
pub use stats::{AveragedStats, QueryStats, ReuseCounters};
pub use trajectory::{Trajectory, TrajectoryResult};
pub use types::DataPoint;
