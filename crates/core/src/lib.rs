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
//! | Paper | Module |
//! |---|---|
//! | control points (Def. 8/9) | [`dist`] |
//! | split points, Thm. 1, Cases 1–4, Lemma 1 | [`split`] |
//! | IOR — incremental obstacle retrieval (Alg. 1) | [`ior`] |
//! | CPLC — control-point-list computation (Alg. 2, Lemmas 5–7) | [`cpl`] |
//! | RLU — result-list update (Alg. 3) | [`rlu`] |
//! | CONN search (Alg. 4, Lemma 2) | [`conn`] |
//! | COkNN extension (§4.5) | [`coknn`] |
//! | single unified R-tree variant (§4.5) | [`single_tree`] |
//! | reference baselines and oracles (sampling, brute force, whole-field odist) | [`baseline`] |
//! | the obstacle loader of every point-anchored family (IOR at a point, Lemma 3) | [`odist`] |
//! | reusable engine & per-query workspace (beyond the paper) | [`engine`] |
//! | batch telemetry (beyond the paper) | [`batch`] |
//! | trajectory CONN/COkNN (§6 future work) | [`trajectory`] |
//! | streaming trajectory sessions (beyond the paper) | [`session`] |
//! | typed `Query`/`Answer` front door (beyond the paper) | [`query`] |
//! | `Scene` + `ConnService` execution handle (beyond the paper) | [`service`] |
//! | epoch-snapshot scene publication (beyond the paper) | [`epoch`] |
//! | live mutation, surgical invalidation, standing queries (beyond the paper) | [`live`] |
//! | spatial shard tiling + locality certificate (beyond the paper) | [`shard`] |
//! | persistent warm engine pool (beyond the paper) | [`pool`] |
//! | admission queue: FIFO pump + backpressure (beyond the paper) | [`admission`] |
//! | typed errors ([`enum@Error`]) | [`error`] |
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
//! single-threaded figure and bench code directly and carries the two
//! families that have no [`QueryKind`]: the single-tree layout of §4.5 and
//! `visible_knn`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panic in the query path; an infallible site says why in an `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::todo, clippy::unimplemented)]

pub mod admission;
pub mod baseline;
pub mod batch;
pub mod coknn;
pub mod config;
pub mod conn;
pub mod cpl;
pub mod dist;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod ior;
pub mod joins;
pub mod live;
pub mod odist;
pub mod onn;
pub mod orange;
pub mod pool;
pub mod query;
pub mod rlu;
pub mod rnn;
pub mod service;
pub mod session;
pub mod shard;
pub mod single_tree;
pub mod split;
pub mod stats;
pub mod streams;
pub mod trajectory;
pub mod types;
pub mod visible;

pub use admission::{Admission, AdmissionConfig, Ticket};
pub use batch::BatchStats;
pub use coknn::CoknnResult;
pub use config::{ConnConfig, KernelMode};
pub use conn::ConnResult;
pub use conn_vgraph::SweepMode;
pub use dist::ControlPoint;
pub use engine::QueryEngine;
pub use epoch::{PinnedEpoch, SceneEpoch};
pub use error::Error;
pub use live::{answers_equivalent, LiveScene, PatchReport, SceneDelta, StandingHandle};
pub use pool::EnginePool;
pub use query::{Answer, Query, QueryBuilder, QueryKind, Response};
pub use rlu::{ResultEntry, ResultList};
pub use service::{ConnService, Scene};
pub use session::{TrajectoryCoknnSession, TrajectorySession};
pub use shard::{Shard, ShardSet, ShardSpec};
pub use single_tree::{build_unified_tree, SpatialObject};
pub use stats::{QueryStats, ReuseCounters};
pub use trajectory::{Trajectory, TrajectoryResult};
pub use types::DataPoint;
