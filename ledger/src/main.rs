//! `ledger` — the repo's benchmark. Four paper-scale workloads, every
//! end-to-end metric with a regression bound, and (with `--trace 1`) the
//! per-layer rows that say where the time went. See README.md beside this
//! crate's manifest for the method; `BENCHMARK.json` at the repo root for
//! the declared surface.
//!
//! One process runs one workload, so warm state and `peak_rss_mb` never leak
//! between workloads; `--workload all`, `--aa` and `--bless` re-execute this
//! binary once per workload.

mod live_churn;
mod metrics;
mod ops;
mod probes;
mod serial;
mod serve_mix;
mod trace;
mod util;
mod verify;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use metrics::{Report, END_TO_END, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: the budget the op counts are sized
/// for, and the only budget the golden digests are valid at.
pub const RUN_SECONDS: u32 = 20;
const GOLDEN: &str = include_str!("../golden.json");
const GOLDEN_SEEDS: [u64; 2] = [2009, 2010];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one workload run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Measuring budget; op counts scale with it so that parent and change
    /// execute the identical op list.
    pub seconds: f64,
    pub traced: bool,
    /// Scale 1/64 and a one-second budget: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

impl Ctx {
    pub fn n(&self) -> usize {
        if self.smoke {
            ops::PAPER_N / 64
        } else {
            ops::PAPER_N
        }
    }

    /// Golden digests describe the full-scale op lists at the declared
    /// budget only.
    fn golden_applies(&self) -> bool {
        !self.smoke && self.seconds == f64::from(RUN_SECONDS) && GOLDEN_SEEDS.contains(&self.seed)
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
    out: Option<String>,
    aa: bool,
    bless: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "ledger: {problem}\nusage: ledger [--workload continuous|point_families|serve_mix|live_churn|all] \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--aa] [--bless]"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        ctx: Ctx {
            seed: 2009,
            seconds: f64::from(RUN_SECONDS),
            traced: false,
            smoke: false,
        },
        out: None,
        aa: false,
        bless: false,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => args.workload = value()?,
            "--seed" => args.ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => args.out = Some(value()?),
            "--trace" => {
                args.ctx.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.ctx.smoke = true,
            "--aa" => args.aa = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.ctx.smoke && !seconds_given {
        args.ctx.seconds = 1.0;
    }
    if !(args.ctx.seconds > 0.0 && args.ctx.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if args.bless {
        bless(&args)
    } else if args.aa {
        a_a(&args)
    } else if args.workload == "all" {
        let codes: Vec<i32> = selected(&args)
            .into_iter()
            .map(|name| run_child(&args, name, args.ctx.seed).0)
            .collect();
        ExitCode::from(u8::from(codes.iter().any(|&c| c != 0)))
    } else {
        run_one(&args)
    }
}

/// Runs the one named workload in this process and prints its result line
/// last.
fn run_one(args: &Args) -> ExitCode {
    let ctx = &args.ctx;
    let (mut report, tracer) = match args.workload.as_str() {
        "continuous" => serial::run(ctx, serial::Which::Continuous),
        "point_families" => serial::run(ctx, serial::Which::PointFamilies),
        "serve_mix" => serve_mix::run(ctx),
        _ => live_churn::run(ctx),
    };
    report.set_layer("trace.spans", tracer.spans.len() as f64);
    report.print_table(ctx.traced);

    let key = format!("{}@{}", report.workload, report.seed);
    println!("golden {key}.input_digest {}", report.input_digest);
    for (fam, (count, sum)) in &report.answers {
        println!("golden {key}.answers.{fam}.count {count}");
        println!("golden {key}.answers.{fam}.sum {sum}");
    }
    let mut drifted = false;
    if ctx.golden_applies() {
        let golden = util::parse_flat_json(GOLDEN);
        match golden.get(&format!("{key}.input_digest")) {
            Some(want) if *want == report.input_digest => {
                println!("input_digest matches golden.json")
            }
            Some(want) => {
                eprintln!(
                    "ledger: input digest of {key} is {}, golden.json says {want}: the generated \
                     workload changed (a conn-datasets change?); re-bless only on purpose",
                    report.input_digest
                );
                return ExitCode::from(3);
            }
            None => println!("no golden digest for {key}"),
        }
        if !ctx.traced {
            drifted = answers_drift(&golden, &key, &report.answers);
            println!("answers_drift: {drifted}");
        }
    }

    if ctx.traced {
        report_spans(&report, &tracer);
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, full_json(&report, ctx, drifted)) {
            eprintln!("ledger: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", report.result_line(ctx.traced, report.failed == 0));
    ExitCode::SUCCESS
}

/// Tuple counts must match and distance sums agree to 1e-6 relative.
fn answers_drift(
    golden: &BTreeMap<String, String>,
    key: &str,
    answers: &BTreeMap<&'static str, (u64, f64)>,
) -> bool {
    answers.iter().any(|(fam, (count, sum))| {
        let field = |f: &str| golden.get(&format!("{key}.answers.{fam}.{f}"));
        let same_count = field("count").and_then(|c| c.parse::<u64>().ok()) == Some(*count);
        let same_sum = field("sum")
            .and_then(|s| s.parse::<f64>().ok())
            .is_some_and(|want| (want - sum).abs() <= 1e-6 * want.abs().max(1.0));
        !(same_count && same_sum)
    })
}

fn report_spans(report: &Report, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.json", report.workload, report.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!("wrote {} spans to {}", tracer.spans.len(), path.display()),
        Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
    }
}

/// The `--out` record: both metric sets with sample counts, digests, and
/// the machine facts a thread-dependent number needs beside it.
fn full_json(report: &Report, ctx: &Ctx, drifted: bool) -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| {
            let (v, n) = report.e2e.get(m.name)?;
            Some(format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {n}, \"bound\": {}}}",
                m.name,
                util::json_num(*v),
                m.unit,
                m.bound
            ))
        })
        .collect();
    let layers: Vec<String> = report
        .layer
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {}", util::json_num(*v)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"families\": [\"{}\"],\n  \"seed\": {},\n  \"seconds\": {},\n  \"scale_n\": {},\n  \"nproc\": {},\n  \"traced\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"input_digest\": \"{}\",\n  \"answers_drift\": {drifted},\n  \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
        report.workload,
        report.families.join("\", \""),
        report.seed,
        ctx.seconds,
        ctx.n(),
        nproc(),
        ctx.traced,
        report.attempted,
        report.failed,
        report.input_digest,
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Re-executes this binary for one workload; echoes and returns its output.
fn run_child(args: &Args, workload: &str, seed: u64) -> (i32, String) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot find own executable: {e}");
            return (1, String::new());
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.ctx.seconds.to_string()])
        .args(["--trace", if args.ctx.traced { "1" } else { "0" }]);
    if args.ctx.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = &args.out {
        cmd.args(["--out", &format!("{out}.{workload}")]);
    }
    // output() waits for the child, so no process outlives this one
    match cmd.stderr(std::process::Stdio::inherit()).output() {
        Ok(output) => {
            let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{stdout}");
            (output.status.code().unwrap_or(1), stdout)
        }
        Err(e) => {
            eprintln!("ledger: cannot run the {workload} child: {e}");
            (1, String::new())
        }
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload == "all" || args.workload == *name)
        .collect()
}

/// `--aa`: the selected workloads twice on the same build; every end-to-end
/// metric's relative difference beside its bound. Either run may play the
/// parent, so the difference is taken against the smaller value and fails
/// in both directions; a value that is not positive fails too.
fn a_a(args: &Args) -> ExitCode {
    let mut broken = false;
    for workload in selected(args) {
        let runs: Vec<BTreeMap<String, f64>> = (0..2)
            .map(|_| {
                let (code, stdout) = run_child(args, workload, args.ctx.seed);
                broken |= code != 0;
                util::parse_metric_values(stdout.lines().last().unwrap_or(""))
            })
            .collect();
        println!("== A/A {workload} ==");
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (runs[0].get(m.name), runs[1].get(m.name)) else {
                println!("  {:<14} missing", m.name);
                broken = true;
                continue;
            };
            let apart = aa_difference(*a, *b);
            let within = apart.is_some_and(|d| d <= m.bound);
            broken |= !within;
            println!(
                "  {:<14} {a:>12.4} vs {b:>12.4}  {:>6.2}% apart (bound {:.0}%) {}",
                m.name,
                apart.unwrap_or(f64::NAN) * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
    }
    ExitCode::from(u8::from(broken))
}

/// How far apart two runs of the same build are, as a share of the smaller
/// value; `None` unless both are positive.
fn aa_difference(a: f64, b: f64) -> Option<f64> {
    (a > 0.0 && b > 0.0).then(|| (a - b).abs() / a.min(b))
}

/// `--bless`: records the digests of every workload at both golden seeds.
fn bless(args: &Args) -> ExitCode {
    let mut golden = BTreeMap::new();
    for seed in GOLDEN_SEEDS {
        for w in &WORKLOADS {
            let (code, stdout) = run_child(args, w.name, seed);
            // a stale digest makes the child exit 3 before it is replaced
            if code != 0 && code != 3 {
                return ExitCode::from(1);
            }
            for line in stdout.lines() {
                if let Some((key, value)) = line
                    .strip_prefix("golden ")
                    .and_then(|rest| rest.split_once(' '))
                {
                    golden.insert(key.to_string(), value.to_string());
                }
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    match std::fs::write(&path, util::write_flat_json(&golden)) {
        Ok(()) => {
            println!("blessed {} entries into {}", golden.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, traced: bool) -> Report {
        let ctx = Ctx {
            seed: 2009,
            seconds: 1.0,
            traced,
            smoke: true,
        };
        match workload {
            "continuous" => serial::run(&ctx, serial::Which::Continuous).0,
            "point_families" => serial::run(&ctx, serial::Which::PointFamilies).0,
            "serve_mix" => serve_mix::run(&ctx).0,
            _ => live_churn::run(&ctx).0,
        }
    }

    #[test]
    fn every_workload_reports_every_declared_metric_and_no_failure() {
        for w in &WORKLOADS {
            let report = smoke(w.name, false);
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.notes);
            assert!(report.attempted > 0);
            for m in &END_TO_END {
                let (value, samples) = report.e2e.get(m.name).copied().unwrap_or((0.0, 0));
                assert!(
                    value > 0.0 && samples > 0,
                    "{} reports no {}",
                    w.name,
                    m.name
                );
            }
            let emitted = util::parse_metric_values(&report.result_line(false, true));
            assert_eq!(emitted.len(), END_TO_END.len());
        }
    }

    #[test]
    fn traced_pass_fills_the_rows_of_the_layers_a_workload_exercises() {
        let continuous = smoke("continuous", true);
        for row in [
            "vgraph.noe_per_q",
            "index.nn_us_per_item",
            "geom.sight_ns",
            "core.engine_direct_ms_per_q",
            "session.leg_p50_ms",
            "shard.local_frac",
        ] {
            assert!(continuous.layer(row) > 0.0, "continuous leaves {row} empty");
        }
        assert_eq!(continuous.layer("admission.wait_p50_ms"), 0.0);
        let serve = smoke("serve_mix", true);
        assert!(serve.layer("admission.batch_size_mean") >= 1.0);
        assert!(serve.layer("pool.batch_speedup") > 0.0);
        let live = smoke("live_churn", true);
        assert!(live.layer("live.kept_frac") > 0.0 && live.layer("index.fork_ms") > 0.0);
        assert_eq!(live.failed, 0, "{:?}", live.notes);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_other_ones() {
        let a = smoke("point_families", false);
        let b = smoke("point_families", false);
        assert_eq!(a.input_digest, b.input_digest);
        assert_eq!(a.answers, b.answers);
        let ctx = Ctx {
            seed: 2010,
            seconds: 1.0,
            traced: false,
            smoke: true,
        };
        let c = serial::run(&ctx, serial::Which::PointFamilies).0;
        assert_ne!(a.input_digest, c.input_digest);
    }

    #[test]
    fn arguments_follow_the_run_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_mix --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.ctx.seed, a.ctx.seconds, a.ctx.traced),
            ("serve_mix", 7, 12.0, true)
        );
        assert!(
            !parse_args(&argv("--trace 0 --workload continuous"))
                .unwrap()
                .ctx
                .traced
        );
        assert!(
            parse_args(&argv("--trace --smoke")).is_err(),
            "one spelling"
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert_eq!(parse_args(&argv("--smoke")).unwrap().ctx.seconds, 1.0);
        assert!(parse_args(&argv("--workload nonsense")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }

    #[test]
    fn a_a_difference_is_symmetric_and_refuses_non_positive_values() {
        assert_eq!(aa_difference(10.0, 14.0), aa_difference(14.0, 10.0));
        assert!((aa_difference(10.0, 14.0).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(aa_difference(5.0, 5.0), Some(0.0));
        assert_eq!(aa_difference(0.0, 5.0), None);
        assert_eq!(aa_difference(5.0, -1.0), None);
        assert_eq!(aa_difference(f64::NAN, 1.0), None);
    }
}
