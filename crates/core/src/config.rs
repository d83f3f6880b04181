//! Tunables for the CONN/COkNN search algorithms.

use conn_geom::Segment;
use conn_vgraph::{Goal, SweepMode};

/// Which obstructed-distance kernel the query families run on. The two
/// kernels answer identically (the `engine_equivalence` suite pins it);
/// they differ only in the work spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The reference kernel every speedup is measured against: blind
    /// Dijkstra expansion (`h ≡ 0`, the paper's traversal *order*), a cold
    /// heap per search, and no result-list cap on CPLC or the obstacle
    /// loads that certify it. Machinery that depends on neither heuristic
    /// nor warm labels still applies — Lemma 7's `CPLMAX` acts as an
    /// expansion bound (keyed by plain `d`), and the radius-bounded
    /// adjacency caches follow from whatever bound is active — so the
    /// recorded speedups *understate* the distance to the original literal
    /// traversal.
    Blind,
    /// The served kernel. Goal-directed A*: searches are keyed by `d + h`
    /// with an admissible Euclidean heuristic toward the query (segment
    /// for IOR/CPLC, point for odist), so pruning thresholds stop
    /// *expansion* instead of just filtering settled nodes. Warm labels:
    /// CPLC replays the settled prefix of the IOR search it follows (same
    /// source, goal and graph); a search after an obstacle load starts
    /// cold, as under the reference kernel. Result-list cap: the list's
    /// Lemma 2 bound (`RLMAX`, or the k-th bound for COkNN) caps CPLC's
    /// expansion and the refinement loads that certify its values —
    /// control points whose best possible value exceeds it can never change
    /// the result.
    #[default]
    GoalDirected,
}

impl KernelMode {
    /// The heuristic the CONN/COkNN loop hands the Dijkstra engine for the
    /// query segment `q`.
    #[inline]
    pub fn goal(&self, q: &Segment) -> Goal {
        match self {
            KernelMode::Blind => Goal::None,
            KernelMode::GoalDirected => Goal::Segment(*q),
        }
    }

    /// The heuristic for a point-to-point search toward `target`.
    #[inline]
    pub fn point_goal(&self, target: conn_geom::Point) -> Goal {
        match self {
            KernelMode::Blind => Goal::None,
            KernelMode::GoalDirected => Goal::Point(target),
        }
    }

    /// Whether a search repeated on an unchanged graph replays the labels
    /// of the run before it instead of starting on a cold heap.
    #[inline]
    pub(crate) fn warm_labels(self) -> bool {
        self == KernelMode::GoalDirected
    }

    /// The result list's Lemma 2 bound as a cap on CPLC expansion and on
    /// the obstacle loads that certify its values (∞ = uncapped, under the
    /// reference kernel).
    #[inline]
    pub(crate) fn result_cap(self, outer_bound: f64) -> f64 {
        match self {
            KernelMode::Blind => f64::INFINITY,
            KernelMode::GoalDirected => outer_bound,
        }
    }
}

/// Configuration of the search pipeline, fixed per engine (and per
/// service) at construction.
///
/// The three lemma switches exist for the pruning-ablation experiment
/// (`repro ablation`); production use keeps everything on. All switches
/// preserve correctness — they only trade pruning work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnConfig {
    /// Lemma 1 endpoint shortcut in RLU/CPLC: skip the quadratic when the
    /// incumbent wins both interval endpoints and sits closer to the query
    /// line than the challenger. RLU applies it at every `k`, with the
    /// interval's k-th member as the incumbent (CONN's rule at `k = 1`).
    pub use_lemma1: bool,
    /// Lemma 6 triangle refinement of candidate control-point regions.
    pub use_lemma6: bool,
    /// Lemma 7 early termination of the CPLC graph traversal.
    pub use_lemma7: bool,
    /// Spatial-hash cell size for the local visibility graph's obstacle
    /// index, in workspace units.
    pub vgraph_cell: f64,
    /// Which obstructed-distance kernel to run searches on.
    pub kernel: KernelMode,
    /// When adjacency-cache builds use the rotational plane-sweep instead
    /// of per-candidate grid walks. Edge lists — and therefore results —
    /// are bit-identical in every mode; only the work to derive them
    /// changes (see `conn_vgraph::sweep`).
    pub sweep: SweepMode,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            use_lemma1: true,
            use_lemma6: true,
            use_lemma7: true,
            vgraph_cell: 50.0,
            kernel: KernelMode::GoalDirected,
            sweep: SweepMode::Auto,
        }
    }
}

impl ConnConfig {
    /// All optional pruning off (ablation baseline).
    pub fn no_pruning() -> Self {
        ConnConfig {
            use_lemma1: false,
            use_lemma6: false,
            use_lemma7: false,
            ..ConnConfig::default()
        }
    }

    /// The reference kernel ([`KernelMode::Blind`]) on otherwise default
    /// settings — the paper's algorithm with its traversal order, the
    /// `blind-kernel` row of `repro ablation` and the reference the
    /// kernel-equivalence suites compare the served kernel to.
    pub fn baseline_kernel() -> Self {
        ConnConfig {
            kernel: KernelMode::Blind,
            ..ConnConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = ConnConfig::default();
        assert!(c.use_lemma1 && c.use_lemma6 && c.use_lemma7);
        assert!(c.vgraph_cell > 0.0);
        assert_eq!(c.kernel, KernelMode::GoalDirected);
        assert!(c.kernel.warm_labels());
        assert_eq!(c.kernel.result_cap(7.0), 7.0);
        assert_eq!(c.sweep, SweepMode::Auto);
    }

    #[test]
    fn presets_differ_as_documented() {
        let np = ConnConfig::no_pruning();
        assert!(!np.use_lemma1 && !np.use_lemma6 && !np.use_lemma7);
        assert_eq!(np.kernel, KernelMode::GoalDirected);
        let base = ConnConfig::baseline_kernel();
        assert!(!base.kernel.warm_labels());
        assert_eq!(base.kernel.result_cap(7.0), f64::INFINITY);
        assert_eq!(
            base,
            ConnConfig {
                kernel: KernelMode::Blind,
                ..ConnConfig::default()
            },
            "baseline differs only in kernel"
        );
    }

    #[test]
    fn kernel_goals_match_mode() {
        use conn_geom::{Point, Segment};
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(KernelMode::Blind.goal(&q), conn_vgraph::Goal::None);
        assert_eq!(
            KernelMode::GoalDirected.goal(&q),
            conn_vgraph::Goal::Segment(q)
        );
        let t = Point::new(3.0, 4.0);
        assert_eq!(
            KernelMode::GoalDirected.point_goal(t),
            conn_vgraph::Goal::Point(t)
        );
        assert_eq!(KernelMode::Blind.point_goal(t), conn_vgraph::Goal::None);
    }
}
