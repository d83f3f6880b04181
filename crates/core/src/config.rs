//! Tunables for the CONN/COkNN search algorithms.

use conn_geom::Segment;
use conn_vgraph::{Goal, SweepMode, DEFAULT_GROWTH_MARGIN};

/// Which obstructed-distance kernel the query families run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Blind Dijkstra expansion (`h ≡ 0`): the paper's traversal *order*.
    /// Engine-level machinery that is heuristic-independent still applies
    /// under this mode — Lemma 7's `CPLMAX` acts as an expansion bound
    /// (keyed by plain `d`), and the radius-bounded adjacency caches
    /// follow from whatever bound is active — so `Blind` isolates the
    /// *goal heuristic* for comparison rather than reverting every
    /// engine optimization.
    Blind,
    /// Goal-directed A*: searches are keyed by `d + h` with an admissible
    /// Euclidean heuristic toward the query (segment for IOR/CPLC, point
    /// for odist), so pruning thresholds stop *expansion* instead of just
    /// filtering settled nodes. Results are identical to `Blind`.
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
}

/// Configuration of the search pipeline.
///
/// The three lemma switches exist for the ablation experiments (DESIGN.md
/// A1); production use keeps everything on. All switches preserve
/// correctness — they only trade pruning work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnConfig {
    /// Lemma 1 endpoint shortcut in RLU/CPLC: skip the quadratic when the
    /// incumbent wins both interval endpoints and sits closer to the query
    /// line than the challenger.
    pub use_lemma1: bool,
    /// Lemma 6 triangle refinement of candidate control-point regions.
    pub use_lemma6: bool,
    /// Lemma 7 early termination of the CPLC graph traversal.
    pub use_lemma7: bool,
    /// Strict refinement loop (DESIGN.md §4): after CPLC, if a control-point
    /// value exceeds the obstacle-loading threshold, load further obstacles
    /// and recompute. Guarantees exactness in deep-shadow corner cases the
    /// paper's literal IOR bound does not cover. Off = the paper's literal
    /// algorithm.
    pub strict_refinement: bool,
    /// Spatial-hash cell size for the local visibility graph's obstacle
    /// index, in workspace units.
    pub vgraph_cell: f64,
    /// Which obstructed-distance kernel to run searches on.
    pub kernel: KernelMode,
    /// Warm label continuation: let CPLC replay the settled prefix of the
    /// IOR search it follows (same source, goal and graph), and let
    /// repeated searches across obstacle loads reseed from labels whose
    /// witness paths the new obstacles do not cross, instead of cold
    /// heaps. Results are identical either way.
    pub label_continuation: bool,
    /// Feed the result sink's Lemma 2 bound (`RLMAX`, or the k-th bound
    /// for COkNN) into CPLC as an extra expansion/refinement cap: control
    /// points whose best possible value exceeds it can never change the
    /// result, so their expansion — and the strict-refinement loads that
    /// would certify them — is skipped. Results are identical either way.
    pub use_rlu_bound: bool,
    /// Trajectory sessions only: seed each new leg's pruning bound from
    /// the previous leg's answer at the shared joint. The obstructed NN
    /// distance is 1-Lipschitz along an unblocked leg, so
    /// `d(joint) + leg_len` upper-bounds the final `RLMAX` of the leg
    /// before a single point is evaluated — capping the point stream and
    /// the early obstacle loads. Applied only when the leg is verified
    /// unblocked; answers are identical either way.
    pub seed_leg_bound: bool,
    /// When adjacency-cache builds use the rotational plane-sweep instead
    /// of per-candidate grid walks. Edge lists — and therefore results —
    /// are bit-identical in every mode; only the work to derive them
    /// changes (see `conn_vgraph::sweep`).
    pub sweep: SweepMode,
    /// Speculative radius-growth margin of bounded adjacency-cache builds:
    /// a request for radius `r` builds out to `r ×` this so the next
    /// slightly-larger request costs only the annulus. Values below `1.0`
    /// are clamped at the use site — any setting yields correct caches.
    pub growth_margin: f64,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            use_lemma1: true,
            use_lemma6: true,
            use_lemma7: true,
            strict_refinement: true,
            vgraph_cell: 50.0,
            kernel: KernelMode::GoalDirected,
            label_continuation: true,
            use_rlu_bound: true,
            seed_leg_bound: true,
            sweep: SweepMode::Auto,
            growth_margin: DEFAULT_GROWTH_MARGIN,
        }
    }
}

impl ConnConfig {
    /// The paper's literal algorithm: all pruning lemmas, blind Dijkstra,
    /// cold heaps, no strict refinement loop.
    pub fn paper() -> Self {
        ConnConfig {
            strict_refinement: false,
            kernel: KernelMode::Blind,
            label_continuation: false,
            use_rlu_bound: false,
            ..ConnConfig::default()
        }
    }

    /// All optional pruning off (ablation baseline).
    pub fn no_pruning() -> Self {
        ConnConfig {
            use_lemma1: false,
            use_lemma6: false,
            use_lemma7: false,
            ..ConnConfig::default()
        }
    }

    /// Applies this config's visibility-substrate tuning — sweep mode and
    /// speculative growth margin — to a graph a query family builds on.
    pub(crate) fn tune_graph(&self, g: &mut conn_vgraph::VisGraph) {
        g.set_sweep_mode(self.sweep);
        g.set_growth_margin(self.growth_margin);
    }

    /// The pre-goal-directed kernel on otherwise default settings: blind
    /// Dijkstra, no label continuation, no RLU expansion cap. This is the
    /// baseline the `BENCH_conn.json` speedup and the `odist_kernel` bench
    /// measure the goal-directed kernel against. Heuristic-independent
    /// engine machinery (Lemma 7 as an expansion stopper, radius-bounded
    /// adjacency caches) stays on — see [`KernelMode::Blind`] — so the
    /// recorded speedup isolates heuristic + continuation + RLU capping
    /// and *understates* the distance to the original literal traversal.
    pub fn baseline_kernel() -> Self {
        ConnConfig {
            kernel: KernelMode::Blind,
            label_continuation: false,
            use_rlu_bound: false,
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
        assert!(c.use_lemma1 && c.use_lemma6 && c.use_lemma7 && c.strict_refinement);
        assert!(c.vgraph_cell > 0.0);
        assert_eq!(c.kernel, KernelMode::GoalDirected);
        assert!(c.label_continuation && c.use_rlu_bound);
        assert!(c.seed_leg_bound);
        assert_eq!(c.sweep, SweepMode::Auto);
        assert!((c.growth_margin - DEFAULT_GROWTH_MARGIN).abs() < 1e-12);
    }

    #[test]
    fn presets_differ_as_documented() {
        assert!(!ConnConfig::paper().strict_refinement);
        assert!(ConnConfig::paper().use_lemma7);
        assert_eq!(ConnConfig::paper().kernel, KernelMode::Blind);
        let np = ConnConfig::no_pruning();
        assert!(!np.use_lemma1 && !np.use_lemma6 && !np.use_lemma7);
        assert!(np.strict_refinement);
        let base = ConnConfig::baseline_kernel();
        assert_eq!(base.kernel, KernelMode::Blind);
        assert!(!base.label_continuation && !base.use_rlu_bound);
        assert!(base.strict_refinement, "baseline differs only in kernel");
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
