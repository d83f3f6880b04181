//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` at the repo root declares the
//! same rows to the driver; a unit test holds the two together.

use std::collections::BTreeMap;

use crate::util::json_num;

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters; names the workload's three family
    /// rows (`fam1..3_mid_ms`).
    pub why: &'static str,
    /// What `fam1_mid_ms`, `fam2_mid_ms`, `fam3_mid_ms` mean on this workload.
    pub families: [&'static str; 3],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "continuous",
        why: "Serial CONN + COkNN + 8-leg trajectories (fam1=conn fam2=coknn fam3=traj): time is in vgraph and the core kernel; index and serving do little, so kernel gains show here only.",
        families: ["conn", "coknn", "traj"],
    },
    Workload {
        name: "point_families",
        why: "Serial ONN + range + odist/route around one obstacle (fam1=onn fam2=range fam3=odist+route): per-query graphs, whole-field odist priming, index retrieval; obstacle-loading gains show here only.",
        families: ["onn", "range", "odist"],
    },
    Workload {
        name: "serve_mix",
        why: "Six-family mix through Admission and one pump, closed loop at saturation (fam1=conn fam2=onn fam3=odist+route, as served by the pump's workers); open-loop latency from due time is traced, not bounded.",
        families: ["conn", "onn", "odist"],
    },
    Workload {
        name: "live_churn",
        why: "LiveScene insert/remove cycles beside reads with 24 standing queries (fam1=conn read fam2=onn read fam3=write): a read gain bought with per-epoch precomputation shows as a slower write.",
        families: ["conn", "onn", "write"],
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The three per-family rows, in slot order.
pub const FAMILY_ROWS: [&str; 3] = ["fam1_mid_ms", "fam2_mid_ms", "fam3_mid_ms"];

/// Every workload reports every one of these (the run contract), so the
/// per-family rows are three slots whose meaning each workload declares.
/// Bounds are three times the widest seed-to-seed spread seen on any
/// workload at the seed commit (README, "Bounds"), capped at 0.25.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "fam1_mid_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "fam2_mid_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "fam3_mid_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this row is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s (all)";
const CONT_SEG: &str = "fam1/fam2_mid_ms (conn, coknn) on continuous";
const ADMISSION: &str = "tail_ms on serve_mix; nothing on the serial workloads";
const WRITE: &str = "fam3_mid_ms (write) on live_churn";

pub const PER_LAYER: [Layer; 68] = [
    layer("datasets.gen_s", "s", "lower", SETUP),
    layer("index.bulk_s", "s", "lower", SETUP),
    layer("live.register_s", "s", "lower", "setup_s on live_churn"),
    layer(
        "shard.build_s",
        "s",
        "lower",
        "informational (no workload serves sharded)",
    ),
    layer(
        "datasets.seg_len_p50",
        "units",
        "higher",
        "input property; explains drift in everything",
    ),
    layer(
        "datasets.detour_frac",
        "frac",
        "higher",
        "input property: share of odist/route answers longer than the straight line",
    ),
    layer("index.data_reads_per_q", "count", "lower", CONT_SEG),
    layer("index.data_faults_per_q", "count", "lower", CONT_SEG),
    layer("index.obst_reads_per_q", "count", "lower", CONT_SEG),
    layer("index.obst_faults_per_q", "count", "lower", CONT_SEG),
    layer(
        "core.query_cost_ms_per_q",
        "ms",
        "lower",
        "paper 5.1 cost (cpu + 10 ms x faults); conn/coknn on continuous",
    ),
    layer(
        "index.nn_us_per_item",
        "us",
        "lower",
        "fam1_mid_ms (onn) on point_families",
    ),
    layer(
        "index.ms_per_q",
        "ms",
        "lower",
        "fam1_mid_ms (onn) on point_families; ~0 share on continuous",
    ),
    layer("index.insert_us", "us", "lower", WRITE),
    layer("index.delete_us", "us", "lower", WRITE),
    layer("index.fork_ms", "ms", "lower", WRITE),
    layer("geom.sight_ns", "ns", "lower", CONT_SEG),
    layer("geom.sight_ms_per_q", "ms", "lower", CONT_SEG),
    layer("vgraph.noe_per_q", "count", "lower", CONT_SEG),
    layer("vgraph.svg_nodes_per_q", "count", "lower", CONT_SEG),
    layer("vgraph.sight_tests_per_q", "count", "lower", CONT_SEG),
    layer("vgraph.sweep_events_per_q", "count", "lower", CONT_SEG),
    layer(
        "vgraph.load_us_per_obstacle",
        "us",
        "lower",
        "fam1/fam3_mid_ms (conn, traj) on continuous; fam2 (range) on point_families",
    ),
    layer(
        "vgraph.load_ms_per_q",
        "ms",
        "lower",
        "fam1/fam3_mid_ms (conn, traj) on continuous; fam2 (range) on point_families",
    ),
    layer(
        "vgraph.adj_us_per_node",
        "us",
        "lower",
        "fam1/fam3_mid_ms on continuous; fam2 (range) on point_families",
    ),
    layer(
        "vgraph.settle_us_per_label",
        "us",
        "lower",
        "fam1/fam3_mid_ms on continuous; fam2 (range) on point_families",
    ),
    layer(
        "core.npe_per_q",
        "count",
        "lower",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.result_tuples_per_q",
        "count",
        "lower",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.label_continuations_per_q",
        "count",
        "higher",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.label_reseeds_per_q",
        "count",
        "lower",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.label_retargets_per_q",
        "count",
        "lower",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.graph_reuses_per_q",
        "count",
        "higher",
        "fam2/fam3_mid_ms (coknn, traj) on continuous",
    ),
    layer(
        "core.engine_direct_ms_per_q",
        "ms",
        "lower",
        "ops_per_s on continuous",
    ),
    layer(
        "core.kernel_self_ms_per_q",
        "ms",
        "lower",
        "ops_per_s on continuous",
    ),
    layer(
        "trace.unattributed_frac",
        "frac",
        "lower",
        "validity: share of op wall no unit-cost row explains",
    ),
    layer(
        "service.dispatch_us_per_q",
        "us",
        "lower",
        "fam1_mid_ms (onn, a 0.1 ms op) on point_families; nothing on continuous",
    ),
    layer(
        "session.leg_p50_ms",
        "ms",
        "lower",
        "fam3_mid_ms (traj) on continuous",
    ),
    layer(
        "session.noe_per_leg",
        "count",
        "lower",
        "fam3_mid_ms (traj) on continuous",
    ),
    layer(
        "session.cold_ratio",
        "ratio",
        "higher",
        "fam3_mid_ms (traj) on continuous",
    ),
    layer("epoch.pin_ns", "ns", "lower", "tail_ms on serve_mix"),
    layer("epoch.publish_us", "us", "lower", WRITE),
    layer("epoch.live_max", "count", "lower", WRITE),
    layer("epoch.retired", "count", "higher", WRITE),
    layer(
        "pool.batch_speedup",
        "ratio",
        "higher",
        "ops_per_s on serve_mix",
    ),
    layer("admission.due_p50_ms", "ms", "lower", ADMISSION),
    layer("admission.due_p95_ms", "ms", "lower", ADMISSION),
    layer("admission.wait_p50_ms", "ms", "lower", ADMISSION),
    layer("admission.wait_p95_ms", "ms", "lower", ADMISSION),
    layer("admission.batch_size_mean", "count", "higher", ADMISSION),
    layer("admission.rejected", "count", "lower", ADMISSION),
    layer(
        "admission.gen_lag_p95_ms",
        "ms",
        "lower",
        "validity of the open-loop schedule on serve_mix",
    ),
    layer("admission.hi_rate_p50_ms", "ms", "lower", ADMISSION),
    layer("admission.hi_rate_p95_ms", "ms", "lower", ADMISSION),
    layer("admission.backlog_end_hi", "count", "lower", ADMISSION),
    layer("admission.max_rate_ok", "1/s", "higher", ADMISSION),
    layer(
        "shard.exec_ratio",
        "ratio",
        "lower",
        "informational for ROADMAP 4b",
    ),
    layer(
        "shard.local_frac",
        "frac",
        "higher",
        "informational for ROADMAP 4b",
    ),
    layer("live.kept_frac", "frac", "higher", WRITE),
    layer("live.tuple_patched", "count", "lower", WRITE),
    layer("live.kernel_patched", "count", "lower", WRITE),
    layer("live.recomputed", "count", "lower", WRITE),
    layer("live.labels_invalidated_per_delta", "count", "lower", WRITE),
    layer("live.adjacency_repairs_per_delta", "count", "lower", WRITE),
    layer("live.write_nostanding_ms", "ms", "lower", WRITE),
    layer("live.patch_ms_per_delta", "ms", "lower", WRITE),
    layer(
        "trace.overhead_frac",
        "frac",
        "lower",
        "validity of every time row above",
    ),
    layer(
        "trace.spans",
        "count",
        "lower",
        "size of the span file the traced pass wrote",
    ),
    layer(
        "trace.probe_ops",
        "count",
        "higher",
        "ops behind the unit-cost rows (64 sampled per workload)",
    ),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub families: [&'static str; 3],
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values with the sample count behind each.
    pub e2e: BTreeMap<&'static str, (f64, usize)>,
    /// Per-layer values (traced pass only); rows a workload does not
    /// exercise stay 0.
    pub layer: BTreeMap<&'static str, f64>,
    pub input_digest: String,
    /// Per family: answer tuples and the sum of reported distances.
    pub answers: BTreeMap<&'static str, (u64, f64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(spec: &Workload, seed: u64) -> Self {
        Report {
            workload: spec.name,
            families: spec.families,
            seed,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        self.e2e.insert(name, (value, samples));
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layer.insert(name, value);
    }

    pub fn layer(&self, name: &str) -> f64 {
        self.layer.get(name).copied().unwrap_or(0.0)
    }

    /// The contract's result line: every end-to-end metric untraced, every
    /// per-layer metric traced.
    pub fn result_line(&self, traced: bool, correct: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.layer(m.name), m.unit))
                .map(metric_json)
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, self.e2e.get(m.name).map_or(0.0, |v| v.0), m.unit))
                .map(metric_json)
                .collect()
        };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table (units, sample counts, what each row means here).
    pub fn print_table(&self, traced: bool) {
        println!(
            "== {} (seed {}, nproc {}) ==",
            self.workload,
            self.seed,
            crate::nproc()
        );
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == self.workload) {
            println!("{}", w.why);
        }
        println!(
            "fail_frac {} ({} failed / {} attempted)",
            json_num(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        if traced {
            for m in &PER_LAYER {
                println!(
                    "  {:<36} {:>14.4} {:<6} ({} is better) -> {}",
                    m.name,
                    self.layer(m.name),
                    m.unit,
                    m.better,
                    m.moves
                );
            }
        } else {
            for m in &END_TO_END {
                let (v, n) = self.e2e.get(m.name).copied().unwrap_or((0.0, 0));
                let label = FAMILY_ROWS
                    .iter()
                    .position(|row| *row == m.name)
                    .map_or("", |slot| self.families[slot]);
                println!(
                    "  {:<14} {:>14.4} {:<4} n={:<6} {:<6} is better, bound {:>2.0}% {}",
                    m.name,
                    v,
                    m.unit,
                    n,
                    m.better,
                    m.bound * 100.0,
                    label
                );
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

fn metric_json((name, value, unit): (&str, f64, &str)) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_num(value)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn declared_names_obey_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    /// These tables are what the binary emits; `BENCHMARK.json` is what the
    /// driver reads. Row for row, in order, they must say the same.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        let rows: Vec<&str> = on_disk
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\": "))
            .collect();
        let workloads = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
        let e2e = END_TO_END.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        });
        let layers = PER_LAYER.iter().map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        });
        let declared: Vec<String> = workloads.chain(e2e).chain(layers).collect();
        assert_eq!(rows, declared);
        let run_seconds = format!("\"run_seconds\": {},", crate::RUN_SECONDS);
        assert!(on_disk.lines().any(|l| l.trim() == run_seconds));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metric_set() {
        let mut r = Report::default();
        r.set("tail_ms", 1.5, 10);
        r.attempted = 10;
        let values = crate::util::parse_metric_values(&r.result_line(false, true));
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(values.keys().map(String::as_str).collect::<Vec<_>>(), {
            let mut d = declared.clone();
            d.sort_unstable();
            d
        });
        let traced = crate::util::parse_metric_values(&r.result_line(true, true));
        assert_eq!(traced.len(), PER_LAYER.len());
    }
}
