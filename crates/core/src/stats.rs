//! Per-query statistics matching the paper's performance metrics (§5.1):
//! I/O cost, CPU time, query cost (CPU + 10 ms per page fault), visibility
//! graph size |SVG|, number of points evaluated (NPE) and number of
//! obstacles evaluated (NOE).
//!
//! Tree I/O is counted by the page meters of the [`crate::QueryEngine`] that
//! ran the query, not by the (shared) trees, so every [`QueryStats`] carries
//! exactly its own query's reads and faults on every path — serial, batch,
//! admitted, sharded — and a batch's totals ([`crate::BatchStats`]) are the
//! sum of its queries'.

use std::time::Duration;

use conn_index::StatsSnapshot;

/// Milliseconds charged per R-tree page fault (paper §5.1).
pub(crate) const IO_MS_PER_FAULT: f64 = 10.0;

/// Allocation-avoidance counters of the reusable query engine. All three
/// are zero when a query runs on fresh per-query state (a new
/// [`crate::QueryEngine`]) and grow once the engine is reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounters {
    /// Queries that reused an already-allocated visibility graph (i.e. ran
    /// on a reset workspace instead of a fresh allocation).
    pub graph_reuses: u64,
    /// Node-slot edge lists whose allocations survived the workspace reset
    /// and were re-bound by this query.
    pub nodes_retained: u64,
    /// Dijkstra preparations that reused retained label/heap capacity
    /// instead of allocating a new engine.
    pub heap_reuses: u64,
    /// Searches served by replaying the retained settlement prefix of the
    /// previous search (the CPLC-after-IOR continuation).
    pub label_continuations: u64,
    /// Always 0: a search over a changed graph starts cold since label
    /// reseeding was deleted (a reseeded run re-expanded every label it
    /// kept, so it saved no work). Kept only because the ledger's
    /// `core.label_reseeds_per_q` row reads it, until the next benchmark
    /// change retires that row.
    pub label_reseeds: u64,
    /// Always 0: a search under a changed goal starts cold since the warm
    /// retarget path was deleted (it never fired on any ledger workload).
    /// Kept only because the ledger's `core.label_retargets_per_q` row
    /// reads it, until the next benchmark change retires that row.
    pub label_retargets: u64,
    /// Segment-vs-rectangle sight tests run by the visibility substrate
    /// during this query, one per rectangle actually tested: grid walks,
    /// the plane sweep's exact probes, visible-region shadow midpoints and
    /// row repair's re-tests against newly loaded rectangles. It is the
    /// denominator for judging the substrate's per-test cost.
    pub sight_tests: u64,
    /// Rotational plane-sweep events processed by adjacency-cache builds
    /// during this query — the sweep's unit of work, recorded alongside
    /// `sight_tests` so the pre-sweep and sweep cost models stay
    /// comparable across the trajectory. Zero when the sweep is off.
    pub sweep_events: u64,
    /// Queries answered entirely inside one spatial shard: the expansion
    /// bound fit the shard's coverage margin (the locality certificate
    /// held), so the full scene was never consulted. Zero on unsharded
    /// services.
    pub shard_local: u64,
    /// Queries whose expansion bound straddled a shard boundary: the
    /// shard-local attempt was discarded and the answer merged by running
    /// against the full scene. Zero on unsharded services.
    pub shard_merges: u64,
    /// Always 0: no search carries labels across a graph change since
    /// label reseeding was deleted, so none are invalidated. Kept beside
    /// [`crate::PatchReport::labels_invalidated`], which the ledger's
    /// `live.labels_invalidated_per_delta` row reads, until the next
    /// benchmark change retires that row.
    pub labels_invalidated: u64,
    /// Base rows the visibility graph repaired in place during this
    /// query's window — re-tested against the obstacles loaded since the
    /// row was built, instead of rebuilt.
    pub adjacency_repairs: u64,
    /// Scene deltas published through the epoch layer by the live-scene
    /// mutation path ([`crate::LiveScene`]). Zero for plain queries; the
    /// live subsystem accounts its publications here so benchmark reports can
    /// amortize them per delta.
    pub delta_publishes: u64,
}

impl ReuseCounters {
    /// Element-wise difference since an `earlier` reading of the same
    /// monotone counters — the window diff behind per-query attribution
    /// (the always-zero fields stay zero).
    pub(crate) fn since(&self, earlier: &ReuseCounters) -> ReuseCounters {
        ReuseCounters {
            graph_reuses: self.graph_reuses - earlier.graph_reuses,
            nodes_retained: self.nodes_retained - earlier.nodes_retained,
            heap_reuses: self.heap_reuses - earlier.heap_reuses,
            label_continuations: self.label_continuations - earlier.label_continuations,
            sight_tests: self.sight_tests - earlier.sight_tests,
            sweep_events: self.sweep_events - earlier.sweep_events,
            shard_local: self.shard_local - earlier.shard_local,
            shard_merges: self.shard_merges - earlier.shard_merges,
            adjacency_repairs: self.adjacency_repairs - earlier.adjacency_repairs,
            delta_publishes: self.delta_publishes - earlier.delta_publishes,
            ..ReuseCounters::default()
        }
    }

    /// Element-wise sum (the always-zero fields stay zero).
    pub fn accumulate(&mut self, other: &ReuseCounters) {
        self.graph_reuses += other.graph_reuses;
        self.nodes_retained += other.nodes_retained;
        self.heap_reuses += other.heap_reuses;
        self.label_continuations += other.label_continuations;
        self.sight_tests += other.sight_tests;
        self.sweep_events += other.sweep_events;
        self.shard_local += other.shard_local;
        self.shard_merges += other.shard_merges;
        self.adjacency_repairs += other.adjacency_repairs;
        self.delta_publishes += other.delta_publishes;
    }
}

/// Everything the evaluation section measures about one query.
#[derive(Debug, Clone, Copy, Default)]
#[must_use]
pub struct QueryStats {
    /// Data R-tree accesses (for the 1T variant, the unified tree's
    /// accesses are reported here and `obstacle_io` stays zero).
    pub data_io: StatsSnapshot,
    /// Obstacle R-tree accesses.
    pub obstacle_io: StatsSnapshot,
    /// Wall-clock CPU time of the query — its work. For a trajectory it is
    /// the sum of its legs' times, which exceeds the call's wall time when
    /// [`crate::ConnService::execute`] ran the legs on several workers.
    pub cpu: Duration,
    /// Number of data points evaluated (paper: NPE).
    pub npe: u64,
    /// Number of obstacles inserted into the local visibility graph
    /// (paper: NOE).
    pub noe: u64,
    /// Vertices of the local visibility graph at query end (paper: |SVG|).
    pub svg_nodes: u64,
    /// Tuples in the final result list.
    pub result_tuples: u64,
    /// Substrate-reuse counters (zero for fresh per-query state).
    pub reuse: ReuseCounters,
}

impl QueryStats {
    /// Total page faults across both trees.
    pub fn faults(&self) -> u64 {
        self.data_io.faults + self.obstacle_io.faults
    }

    /// Total logical page reads across both trees.
    pub fn reads(&self) -> u64 {
        self.data_io.reads + self.obstacle_io.reads
    }

    /// Simulated I/O time (10 ms per fault), in seconds.
    pub fn io_seconds(&self) -> f64 {
        self.faults() as f64 * IO_MS_PER_FAULT / 1000.0
    }

    /// The paper's "total query time": CPU + charged I/O, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.cpu.as_secs_f64() + self.io_seconds()
    }

    /// Element-wise sum (used to average over a workload of queries).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.data_io.reads += other.data_io.reads;
        self.data_io.faults += other.data_io.faults;
        self.obstacle_io.reads += other.obstacle_io.reads;
        self.obstacle_io.faults += other.obstacle_io.faults;
        self.cpu += other.cpu;
        self.npe += other.npe;
        self.noe += other.noe;
        self.svg_nodes += other.svg_nodes;
        self.result_tuples += other.result_tuples;
        self.reuse.accumulate(&other.reuse);
    }

    /// Divides all counters by `n` (averaging helper; counters round down).
    pub fn averaged(&self, n: u64) -> AveragedStats {
        let n = n.max(1) as f64;
        AveragedStats {
            reads: self.reads() as f64 / n,
            faults: self.faults() as f64 / n,
            cpu_s: self.cpu.as_secs_f64() / n,
            io_s: self.io_seconds() / n,
            total_s: self.total_seconds() / n,
            npe: self.npe as f64 / n,
            noe: self.noe as f64 / n,
            svg_nodes: self.svg_nodes as f64 / n,
            result_tuples: self.result_tuples as f64 / n,
        }
    }
}

/// Workload-averaged metrics, as reported in the paper's figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AveragedStats {
    /// Mean logical page reads per query.
    pub reads: f64,
    /// Mean page faults per query.
    pub faults: f64,
    /// Mean CPU seconds per query.
    pub cpu_s: f64,
    /// Mean charged I/O seconds per query (faults × 10 ms).
    pub io_s: f64,
    /// Mean total seconds per query (`cpu_s + io_s`).
    pub total_s: f64,
    /// Mean data points evaluated per query.
    pub npe: f64,
    /// Mean obstacles evaluated per query.
    pub noe: f64,
    /// Mean visibility-graph size per query.
    pub svg_nodes: f64,
    /// Mean result tuples per query.
    pub result_tuples: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(reads: u64, faults: u64) -> StatsSnapshot {
        StatsSnapshot { reads, faults }
    }

    #[test]
    fn totals_combine_cpu_and_charged_io() {
        let s = QueryStats {
            data_io: snap(30, 10),
            obstacle_io: snap(20, 5),
            cpu: Duration::from_millis(250),
            ..Default::default()
        };
        assert_eq!(s.faults(), 15);
        assert_eq!(s.reads(), 50);
        assert!((s.io_seconds() - 0.15).abs() < 1e-12);
        assert!((s.total_seconds() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn accumulate_and_average() {
        let mut acc = QueryStats::default();
        for i in 1..=4u64 {
            acc.accumulate(&QueryStats {
                data_io: snap(10 * i, i),
                cpu: Duration::from_millis(100),
                npe: i,
                noe: 2 * i,
                svg_nodes: 5,
                result_tuples: 3,
                ..Default::default()
            });
        }
        let avg = acc.averaged(4);
        assert!((avg.reads - 25.0).abs() < 1e-9);
        assert!((avg.npe - 2.5).abs() < 1e-9);
        assert!((avg.noe - 5.0).abs() < 1e-9);
        assert!((avg.cpu_s - 0.1).abs() < 1e-9);
        assert_eq!(avg.svg_nodes, 5.0);
    }

    #[test]
    fn since_undoes_accumulate() {
        let a = ReuseCounters {
            heap_reuses: 3,
            sight_tests: 40,
            delta_publishes: 1,
            ..Default::default()
        };
        let mut b = a;
        b.accumulate(&ReuseCounters {
            sight_tests: 2,
            shard_local: 1,
            ..Default::default()
        });
        let d = b.since(&a);
        assert_eq!((d.sight_tests, d.shard_local, d.heap_reuses), (2, 1, 0));
        assert_eq!(a.since(&a), ReuseCounters::default());
    }
}
