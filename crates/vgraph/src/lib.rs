//! Visibility substrate for obstructed query processing.
//!
//! The CONN paper computes obstructed distances on a **local** visibility
//! graph (§4.1): it holds only the query endpoints, the data point under
//! evaluation, and the obstacles streamed in so far by incremental obstacle
//! retrieval. This crate provides that graph:
//!
//! * [`VisGraph`] — nodes (query endpoints, data points, obstacle vertices)
//!   plus a growing obstacle set. Adjacency is *lazy*: a node's edge list is
//!   computed when Dijkstra first expands it and invalidated when new
//!   obstacles arrive, so queries never pay for the full `O(n²)` edge set the
//!   paper's related-work section warns about — and *bitangent*: an edge
//!   touches an obstacle corner only along the directions a shortest path
//!   can both reach and leave that corner along (the classical reduced
//!   visibility graph).
//!   Storage is a CSR-style arena with SoA node lanes and `u32` indices
//!   (see the module docs of `graph.rs` for the contract, the layout and the
//!   overlay semantics).
//! * [`ObstacleGrid`] — a dilated spatial-hash grid making each
//!   "is this sight-line blocked?" test proportional to the cells the
//!   sight-line crosses instead of the whole obstacle set. Every verdict
//!   in this crate — grid walk, sweep, shadow, repair — is one scalar
//!   segment-vs-rectangle test per rectangle (`conn_geom::SegProbe` or
//!   its reference `Rect::blocks`), and each one is counted in
//!   [`VisGraph::sight_tests`].
//! * [`DijkstraEngine`] — incremental single-source shortest paths with
//!   three kernel modes: blind Dijkstra, goal-directed A* (admissible
//!   Euclidean [`Goal`] heuristics, caller-supplied expansion bound), and
//!   warm label continuation (replay of an unchanged search; a changed
//!   graph starts cold).
//!   Settled nodes stream out in ascending priority, exactly the order the
//!   CPLC algorithm (paper Alg. 2) consumes and prunes with Lemma 7; only
//!   the source and obstacle vertices are expanded, and an obstacle
//!   vertex's label is its shortest *tangent arrival* (see the module docs).
//! * [`visible_region`] — the visible region of a vertex over the query
//!   segment (paper Def. 2), by shadow subtraction.
//! * `sweep.rs` — the rotational plane-sweep that replaces a cache build's
//!   per-candidate grid walks with one angular pass (selected by
//!   [`SweepMode`]), built front to back so that rectangles and candidates
//!   hidden behind nearer rectangles never become events. It only narrows
//!   which rectangles are tested; each verdict is still the scalar test.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// No panic in the query path; an infallible site says why in an `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::todo, clippy::unimplemented)]

mod dijkstra;
mod graph;
mod grid;
mod sweep;
mod visregion;

pub use dijkstra::{DijkstraEngine, Goal, Prep};
pub use graph::{NodeId, NodeKind, VisGraph};
pub use grid::ObstacleGrid;
pub use sweep::SweepMode;
pub use visregion::visible_region;
