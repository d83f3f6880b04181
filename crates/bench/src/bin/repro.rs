//! `repro` — regenerates every table/figure series of the paper's
//! evaluation (§5) as text tables. It prints and writes nothing else:
//! timing the system is the ledger's job (`ledger/`, `BENCHMARK.json`).
//!
//! ```text
//! repro [TARGET] [--scale S] [--queries N] [--seed S]
//! ```
//!
//! * `TARGET` — `fig9`…`fig13`, `ablation`, `motivation`, or `all` (the
//!   default).
//! * `--scale` — dataset scale relative to the paper's cardinalities
//!   (|LA| = 131,461): `smoke`/`small` (1/256), `default` (1/16), `paper`
//!   (1), or a ratio like `0.125`.
//! * `--queries` — workload size per setting (paper: 100; default here 20).
//! * `--seed` — dataset and workload seed (default 2009).
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! stand-ins for CA/LA, reduced scale); the *shapes* — who wins, what grows
//! with what — are the reproduction target.

use conn_bench::{print_header, print_row, Scale, Workload};
use conn_core::ConnConfig;
use conn_datasets::{Combo, DEFAULT_K, DEFAULT_QL};

struct Args {
    what: String,
    scale: Scale,
    queries: usize,
    seed: u64,
}

/// One target: its name and the function that prints its tables.
type Table = (&'static str, fn(&Args));

/// Every table `repro` prints, in `all`'s order.
const TABLES: [Table; 7] = [
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablation", ablation),
    ("motivation", motivation),
];

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: repro [all|{}] [--scale smoke|small|default|paper|RATIO] [--queries N] [--seed S]",
        TABLES.map(|(name, _)| name).join("|")
    );
    std::process::exit(2);
}

fn flag_value(argv: &[String], i: usize) -> &str {
    argv.get(i)
        .map(String::as_str)
        .unwrap_or_else(|| usage(&format!("{} requires a value", argv[i - 1])))
}

fn parse_args() -> Args {
    let mut args = Args {
        what: "all".to_string(),
        scale: Scale::DEFAULT,
        queries: 20,
        seed: 2009,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = match flag_value(&argv, i) {
                    "smoke" | "small" => Scale::SMOKE,
                    "default" => Scale::DEFAULT,
                    "paper" => Scale::PAPER,
                    s => Scale(s.parse().unwrap_or_else(|_| {
                        usage(&format!(
                            "--scale must be smoke, small, default, paper, or a ratio (got {s:?})"
                        ))
                    })),
                };
            }
            "--queries" => {
                i += 1;
                args.queries = flag_value(&argv, i).parse().unwrap_or_else(|_| {
                    usage(&format!("--queries must be a number (got {:?})", argv[i]))
                });
            }
            "--seed" => {
                i += 1;
                args.seed = flag_value(&argv, i).parse().unwrap_or_else(|_| {
                    usage(&format!("--seed must be a number (got {:?})", argv[i]))
                });
            }
            other if other == "all" || TABLES.iter().any(|(name, _)| *name == other) => {
                args.what = other.to_string();
            }
            other => usage(&format!("unknown target {other:?}")),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "# CONN reproduction — scale {:.4} (|O| = {}, |P|_CA = {}), {} queries/setting, seed {}",
        args.scale.0,
        args.scale.obstacles(),
        args.scale.ca_points(),
        args.queries,
        args.seed
    );
    for (name, table) in TABLES {
        if args.what == "all" || args.what == name {
            table(&args);
        }
    }
}

/// The paper's §1 motivation: a naive CONN built from m snapshot ONN
/// queries vs one exact CONN query (same R-trees, same I/O accounting).
fn motivation(args: &Args) {
    use conn_core::baseline::naive_conn_by_onn;
    use conn_core::{ConnService, Query, Scene};
    println!("\n## Motivation — naive m-point ONN sampling vs one exact CONN (UL, k = 1)");
    let scale = Scale(args.scale.0.min(1.0 / 64.0)); // the naive side is slow
    let w = Workload::with_ratio(
        Combo::Ul,
        scale,
        1.0,
        DEFAULT_QL,
        args.queries.min(5),
        args.seed,
    );
    let cfg = ConnConfig::default();
    println!(
        "{:<16} {:>10} {:>9} {:>9} {:>9}",
        "strategy", "total(s)", "cpu(s)", "reads", "faults"
    );
    let service = ConnService::with_config(Scene::borrowing(&w.data_tree, &w.obstacle_tree), cfg);
    let mut exact = conn_core::QueryStats::default();
    for q in &w.queries {
        let query = Query::conn(*q)
            .build()
            .expect("workload segments are valid");
        exact.accumulate(&service.execute(&query).expect("conn query").stats);
    }
    let e = exact.averaged(w.queries.len() as u64);
    println!(
        "{:<16} {:>10.3} {:>9.3} {:>9.1} {:>9.1}",
        "exact CONN", e.total_s, e.cpu_s, e.reads, e.faults
    );
    for m in [10usize, 50] {
        let mut naive = conn_core::QueryStats::default();
        for q in &w.queries {
            let (_, s) = naive_conn_by_onn(&w.data_tree, &w.obstacle_tree, q, m, 1, &cfg);
            naive.accumulate(&s);
        }
        let n = naive.averaged(w.queries.len() as u64);
        println!(
            "{:<16} {:>10.3} {:>9.3} {:>9.1} {:>9.1}",
            format!("naive m={m}"),
            n.total_s,
            n.cpu_s,
            n.reads,
            n.faults
        );
    }
    println!("(naive sampling is also *inexact between samples*; the exact");
    println!(" algorithm reports every split point — see paper §1/§2.2)");
}

/// Figure 9: performance vs query length (CL, k = 5).
fn fig9(args: &Args) {
    println!("\n## Figure 9 — COkNN vs query length ql (CL, k = 5)");
    print_header("ql (% side)");
    let cfg = ConnConfig::default();
    for ql_pct in [1.5, 3.0, 4.5, 6.0, 7.5] {
        let w = Workload::cl(args.scale, ql_pct / 100.0, args.queries, args.seed);
        let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
        print_row(&format!("{ql_pct}"), &avg, w.full_vg_vertices());
    }
}

/// Figure 10: performance vs k (CL, ql = 4.5 %).
fn fig10(args: &Args) {
    println!("\n## Figure 10 — COkNN vs k (CL, ql = 4.5%)");
    print_header("k");
    let cfg = ConnConfig::default();
    let w = Workload::cl(args.scale, DEFAULT_QL, args.queries, args.seed);
    for k in [1usize, 3, 5, 7, 9] {
        let avg = w.run_two_tree(k, &cfg, 0.0, 0);
        print_row(&format!("{k}"), &avg, w.full_vg_vertices());
    }
}

/// Figure 11: performance vs |P|/|O| (UL and ZL, k = 5, ql = 4.5 %).
fn fig11(args: &Args) {
    let cfg = ConnConfig::default();
    for combo in [Combo::Ul, Combo::Zl] {
        println!(
            "\n## Figure 11 — COkNN vs |P|/|O| ({}, k = 5, ql = 4.5%)",
            combo.label()
        );
        print_header("|P|/|O|");
        for ratio in [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let w = Workload::with_ratio(
                combo,
                args.scale,
                ratio,
                DEFAULT_QL,
                args.queries,
                args.seed,
            );
            let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            print_row(&format!("{ratio}"), &avg, w.full_vg_vertices());
        }
    }
}

/// Figure 12: performance vs LRU buffer size (CL and UL, k = 5, ql = 4.5 %).
fn fig12(args: &Args) {
    let cfg = ConnConfig::default();
    let warmup = args.queries / 2; // paper: first 50 of 100 warm the buffer
    for combo in [Combo::Cl, Combo::Ul] {
        println!(
            "\n## Figure 12 — COkNN vs buffer size ({}, k = 5, ql = 4.5%)",
            combo.label()
        );
        print_header("buffer (%)");
        let w = match combo {
            Combo::Cl => Workload::cl(args.scale, DEFAULT_QL, args.queries, args.seed),
            _ => Workload::with_ratio(combo, args.scale, 1.0, DEFAULT_QL, args.queries, args.seed),
        };
        for bs_pct in [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let avg = w.run_two_tree(DEFAULT_K, &cfg, bs_pct / 100.0, warmup);
            print_row(&format!("{bs_pct}"), &avg, w.full_vg_vertices());
        }
    }
}

/// Figure 13: one unified R-tree (1T) vs two R-trees (2T), across ql, k and
/// |P|/|O|.
fn fig13(args: &Args) {
    let cfg = ConnConfig::default();

    println!("\n## Figure 13(a,b) — 1T vs 2T across ql (CL and UL, k = 5)");
    for combo in [Combo::Cl, Combo::Ul] {
        println!("-- {} --", combo.label());
        println!(
            "{:<14} {:>12} {:>12}",
            "ql (% side)", "2T total(s)", "1T total(s)"
        );
        for ql_pct in [1.5, 3.0, 4.5, 6.0, 7.5] {
            let w = match combo {
                Combo::Cl => Workload::cl(args.scale, ql_pct / 100.0, args.queries, args.seed),
                _ => Workload::with_ratio(
                    combo,
                    args.scale,
                    1.0,
                    ql_pct / 100.0,
                    args.queries,
                    args.seed,
                ),
            };
            let two = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            let one = w.run_one_tree(DEFAULT_K, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", ql_pct, two.total_s, one.total_s);
        }
    }

    println!("\n## Figure 13(c,d) — 1T vs 2T across k (CL and UL, ql = 4.5%)");
    for combo in [Combo::Cl, Combo::Ul] {
        println!("-- {} --", combo.label());
        println!("{:<14} {:>12} {:>12}", "k", "2T total(s)", "1T total(s)");
        let w = match combo {
            Combo::Cl => Workload::cl(args.scale, DEFAULT_QL, args.queries, args.seed),
            _ => Workload::with_ratio(combo, args.scale, 1.0, DEFAULT_QL, args.queries, args.seed),
        };
        for k in [1usize, 3, 5, 7, 9] {
            let two = w.run_two_tree(k, &cfg, 0.0, 0);
            let one = w.run_one_tree(k, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", k, two.total_s, one.total_s);
        }
    }

    println!("\n## Figure 13(e,f) — 1T vs 2T across |P|/|O| (UL and ZL, k = 5, ql = 4.5%)");
    for combo in [Combo::Ul, Combo::Zl] {
        println!("-- {} --", combo.label());
        println!(
            "{:<14} {:>12} {:>12}",
            "|P|/|O|", "2T total(s)", "1T total(s)"
        );
        for ratio in [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let w = Workload::with_ratio(
                combo,
                args.scale,
                ratio,
                DEFAULT_QL,
                args.queries,
                args.seed,
            );
            let two = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
            let one = w.run_one_tree(DEFAULT_K, &cfg, 0.0, 0);
            println!("{:<14} {:>12.3} {:>12.3}", ratio, two.total_s, one.total_s);
        }
    }
}

/// Ablation: what each pruning lemma, the strict refinement loop and the
/// goal-directed + continued kernel cost or buy, one switch off at a time
/// against the all-on default.
fn ablation(args: &Args) {
    println!("\n## Ablation — pruning lemmas, strict mode & kernel (UL, k = 5, ql = 4.5%)");
    let w = Workload::with_ratio(
        Combo::Ul,
        args.scale,
        1.0,
        DEFAULT_QL,
        args.queries,
        args.seed,
    );
    print_header("config");
    let configs: [(&str, ConnConfig); 6] = [
        ("all-on", ConnConfig::default()),
        ("paper(literal)", ConnConfig::paper()),
        (
            "no-lemma1",
            ConnConfig {
                use_lemma1: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma6",
            ConnConfig {
                use_lemma6: false,
                ..ConnConfig::default()
            },
        ),
        (
            "no-lemma7",
            ConnConfig {
                use_lemma7: false,
                ..ConnConfig::default()
            },
        ),
        ("blind-kernel", ConnConfig::baseline_kernel()),
    ];
    for (label, cfg) in configs {
        let avg = w.run_two_tree(DEFAULT_K, &cfg, 0.0, 0);
        print_row(label, &avg, w.full_vg_vertices());
    }
}
