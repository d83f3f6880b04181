//! A disk-simulating R\*-tree.
//!
//! The CONN paper's evaluation (§5.1) charges 10 ms per R-tree page fault and
//! reports page accesses as the I/O metric, with an optional LRU buffer sized
//! as a percentage of the tree. Reproducing those experiments therefore needs
//! an index whose node accesses can be *counted* and *buffered* — which is why
//! this crate implements the R\*-tree (Beckmann, Kriegel, Schneider, Seeger,
//! SIGMOD 1990) from scratch instead of using an in-memory spatial crate:
//!
//! * [`RStarTree`] — insertion with forced reinsertion and the R\* split, or
//!   STR bulk loading; 4 KB pages by default, fanout derived from entry size.
//! * [`IoMeter`] — logical reads and page faults, observable mid-query,
//!   and the [`LruBuffer`] page cache that decides which reads fault. The
//!   meter is *caller-owned*: charged traversals
//!   ([`RStarTree::nearest_iter_metered`], [`RStarTree::range_metered`])
//!   take it as an argument, the tree itself is plain immutable
//!   `Send + Sync` data with no counter, lock or cell in it, and the meter
//!   is `!Sync` — one per thread of execution, so per-query
//!   attribution needs no reset and cannot race (its docs also have the
//!   Figure 12 recipe).
//! * [`NearestIter`] — incremental best-first (Hjaltason & Samet) neighbor
//!   stream ordered by `mindist` to a [`Point`] or a [`Segment`] query, the
//!   access pattern Algorithms 1 and 4 of the paper are built on.
//!
//! [`Point`]: conn_geom::Point
//! [`Segment`]: conn_geom::Segment

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// No panic in the query path; an infallible site says why in an `#[expect]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::todo, clippy::unimplemented)]

mod buffer;
mod bulk;
mod delete;
mod insert;
mod node;
mod query;
mod stats;
mod tree;

pub use buffer::LruBuffer;
pub use node::Mbr;
pub use query::{DistShape, NearestIter};
pub use stats::{IoMeter, StatsSnapshot};
pub use tree::{RStarTree, DEFAULT_PAGE_SIZE};
