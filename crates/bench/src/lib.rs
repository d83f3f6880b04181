//! Shared harness for the evaluation reproduction (paper §5).
//!
//! Builds the paper's dataset combinations (CL / UL / ZL) at a configurable
//! scale, runs query workloads, and averages the per-query metrics the
//! figures report. The `repro` binary sits on top of this crate; timing the
//! system is the ledger's job (`ledger/`, `BENCHMARK.json`).

use conn_core::AveragedStats;
use conn_core::{
    build_unified_tree, ConnConfig, DataPoint, QueryEngine, QueryStats, SpatialObject,
};
use conn_datasets::{la_like, query_segments, Combo, PAPER_CA_SIZE, PAPER_LA_SIZE};
use conn_geom::{Rect, Segment};
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};

/// Scale factor relative to the paper's dataset cardinalities
/// (|LA| = 131,461 obstacles, |CA| = 60,344 points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Tiny smoke-test scale (CI-friendly).
    pub const SMOKE: Scale = Scale(1.0 / 256.0);
    /// Default reproduction scale: 1/16 of the paper (≈ 8.2 k obstacles).
    pub const DEFAULT: Scale = Scale(1.0 / 16.0);
    /// The paper's full cardinalities.
    pub const PAPER: Scale = Scale(1.0);

    pub fn obstacles(&self) -> usize {
        ((PAPER_LA_SIZE as f64 * self.0) as usize).max(50)
    }

    pub fn ca_points(&self) -> usize {
        ((PAPER_CA_SIZE as f64 * self.0) as usize).max(25)
    }
}

/// A fully built experimental setting: trees + query workload.
pub struct Workload {
    pub combo: Combo,
    pub points: Vec<DataPoint>,
    pub obstacles: Vec<Rect>,
    pub data_tree: RStarTree<DataPoint>,
    pub obstacle_tree: RStarTree<Rect>,
    pub queries: Vec<Segment>,
}

impl Workload {
    /// Builds a workload: `n_points`/`n_obstacles` control cardinalities,
    /// `ql` the query length fraction, `n_queries` the workload size.
    pub fn build(
        combo: Combo,
        n_points: usize,
        n_obstacles: usize,
        ql: f64,
        n_queries: usize,
        seed: u64,
    ) -> Self {
        let obstacles = la_like(n_obstacles, seed);
        let raw = combo.points(n_points, seed.wrapping_add(1), &obstacles);
        let points = DataPoint::from_points(&raw);
        let queries = query_segments(n_queries, ql, seed.wrapping_add(2), &obstacles);
        let data_tree = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
        let obstacle_tree = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
        Workload {
            combo,
            points,
            obstacles,
            data_tree,
            obstacle_tree,
            queries,
        }
    }

    /// The paper's default CL setting at the given scale.
    pub fn cl(scale: Scale, ql: f64, n_queries: usize, seed: u64) -> Self {
        Self::build(
            Combo::Cl,
            scale.ca_points(),
            scale.obstacles(),
            ql,
            n_queries,
            seed,
        )
    }

    /// UL / ZL with an explicit |P|/|O| ratio (Figure 11's x-axis).
    pub fn with_ratio(
        combo: Combo,
        scale: Scale,
        ratio: f64,
        ql: f64,
        n_queries: usize,
        seed: u64,
    ) -> Self {
        let n_obstacles = scale.obstacles();
        let n_points = ((n_obstacles as f64 * ratio) as usize).max(10);
        Self::build(combo, n_points, n_obstacles, ql, n_queries, seed)
    }

    /// The `FULL` line of Figures 9–12: vertices of the *global* visibility
    /// graph (4 per rectangular obstacle).
    pub fn full_vg_vertices(&self) -> u64 {
        4 * self.obstacles.len() as u64
    }

    /// Builds the unified tree for the 1T variant (built on demand — it
    /// duplicates the data).
    pub fn unified_tree(&self) -> RStarTree<SpatialObject> {
        build_unified_tree(&self.points, &self.obstacles, DEFAULT_PAGE_SIZE)
    }

    /// Runs the COkNN workload on the two-tree layout, averaging metrics.
    /// `buffer_frac` sizes the LRU buffer per tree (Figure 12); with a
    /// non-zero buffer the first `warmup` queries are excluded from the
    /// averages, as in the paper. The whole workload runs on one engine —
    /// the buffers are the engine's, so that is what lets a query hit the
    /// pages an earlier one brought in.
    pub fn run_two_tree(
        &self,
        k: usize,
        cfg: &ConnConfig,
        buffer_frac: f64,
        warmup: usize,
    ) -> AveragedStats {
        let mut engine = QueryEngine::new(*cfg);
        engine.set_buffer_frac(buffer_frac, &self.data_tree, Some(&self.obstacle_tree));
        self.averaged(warmup, |q| {
            engine.coknn(&self.data_tree, &self.obstacle_tree, q, k).1
        })
    }

    /// Averages `run`'s stats over the workload, `warmup` queries excluded.
    fn averaged(
        &self,
        warmup: usize,
        mut run: impl FnMut(&Segment) -> QueryStats,
    ) -> AveragedStats {
        let mut acc = QueryStats::default();
        let mut counted = 0u64;
        for (i, q) in self.queries.iter().enumerate() {
            let stats = run(q);
            if i >= warmup {
                acc.accumulate(&stats);
                counted += 1;
            }
        }
        acc.averaged(counted)
    }

    /// Runs the COkNN workload on the single-tree layout.
    pub fn run_one_tree(
        &self,
        k: usize,
        cfg: &ConnConfig,
        buffer_frac: f64,
        warmup: usize,
    ) -> AveragedStats {
        let tree = self.unified_tree();
        let mut engine = QueryEngine::new(*cfg);
        engine.set_buffer_frac(buffer_frac, &tree, None);
        self.averaged(warmup, |q| engine.coknn_single_tree(&tree, q, k).1)
    }
}

/// Pretty-prints one figure row.
pub fn print_row(label: &str, s: &AveragedStats, full_vg: u64) {
    println!(
        "{label:<14} {:>9.3} {:>8.3} {:>8.3} {:>8.1} {:>7.1} {:>8.1} {:>9.1} {:>9}",
        s.total_s, s.io_s, s.cpu_s, s.faults, s.npe, s.noe, s.svg_nodes, full_vg
    );
}

/// Prints the common table header.
pub fn print_header(param: &str) {
    println!(
        "{param:<14} {:>9} {:>8} {:>8} {:>8} {:>7} {:>8} {:>9} {:>9}",
        "total(s)", "io(s)", "cpu(s)", "faults", "NPE", "NOE", "|SVG|", "FULL"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_cardinalities() {
        assert_eq!(Scale::PAPER.obstacles(), PAPER_LA_SIZE);
        assert_eq!(Scale::PAPER.ca_points(), PAPER_CA_SIZE);
        assert!(Scale::SMOKE.obstacles() >= 50);
        assert!(Scale::DEFAULT.obstacles() > Scale::SMOKE.obstacles());
    }

    #[test]
    fn smoke_workload_runs_and_averages() {
        let w = Workload::build(Combo::Ul, 60, 120, 0.03, 3, 11);
        assert_eq!(w.queries.len(), 3);
        let avg = w.run_two_tree(2, &ConnConfig::default(), 0.0, 0);
        assert!(avg.npe >= 1.0);
        assert!(avg.total_s >= avg.cpu_s);
        assert_eq!(w.full_vg_vertices(), 480);
    }

    #[test]
    fn one_tree_runs_too() {
        let w = Workload::build(Combo::Zl, 40, 80, 0.03, 2, 13);
        let avg = w.run_one_tree(1, &ConnConfig::default(), 0.0, 0);
        assert!(avg.npe >= 1.0);
        assert!(avg.faults > 0.0);
    }

    #[test]
    fn buffer_reduces_faults() {
        let w = Workload::build(Combo::Ul, 100, 200, 0.04, 6, 17);
        let cold = w.run_two_tree(1, &ConnConfig::default(), 0.0, 3);
        let warm = w.run_two_tree(1, &ConnConfig::default(), 0.5, 3);
        assert!(
            warm.faults <= cold.faults,
            "{} vs {}",
            warm.faults,
            cold.faults
        );
        assert_eq!(warm.reads, cold.reads, "logical reads unaffected");
    }
}
