//! End-to-end correctness: the exact CONN/COkNN pipeline must agree with
//! the brute-force full-visibility-graph baseline at every sampled location
//! of the query segment, across randomized instances.

use conn_core::baseline::{brute_force_oknn, sampled_conn};
use conn_core::{
    build_unified_tree, ConnConfig, ConnService, DataPoint, Query, QueryEngine, QueryStats, Scene,
};
use conn_geom::{Point, Rect, Segment};
use conn_index::RStarTree;
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Disjoint obstacle rectangles.
fn obstacles() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((pt(), 10.0..120.0f64, 10.0..120.0f64), 0..10).prop_map(|specs| {
        let mut out: Vec<Rect> = Vec::new();
        for (p, w, h) in specs {
            let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
            if !out.iter().any(|o| o.intersects(&r)) {
                out.push(r);
            }
        }
        out
    })
}

/// An instance: obstacles, free data points, and a query segment.
#[derive(Debug, Clone)]
struct Instance {
    points: Vec<DataPoint>,
    obstacles: Vec<Rect>,
    q: Segment,
}

/// Instances whose query trajectory does not cross obstacle interiors.
fn instance() -> impl Strategy<Value = Instance> {
    instance_crossing(false)
}

/// Instances whose query segment crosses an obstacle's interior (`crossing`)
/// or does not.
fn instance_crossing(crossing: bool) -> impl Strategy<Value = Instance> {
    (obstacles(), prop::collection::vec(pt(), 1..25), pt(), pt()).prop_filter_map(
        "bad query",
        move |(obs, raw_points, qa, qb)| {
            let free = |p: Point| !obs.iter().any(|r| r.strictly_contains(p));
            let points: Vec<DataPoint> = raw_points
                .into_iter()
                .filter(|p| free(*p))
                .enumerate()
                .map(|(i, p)| DataPoint::new(i as u32, p))
                .collect();
            if points.is_empty() {
                return None;
            }
            let q = Segment::new(qa, qb);
            if q.len() < 50.0 {
                return None;
            }
            if obs.iter().any(|r| r.blocks(&q)) != crossing {
                return None;
            }
            Some(Instance {
                points,
                obstacles: obs,
                q,
            })
        },
    )
}

/// Sample parameters avoiding the immediate neighborhood of split points,
/// where ties make winner identity ambiguous.
fn check_against_brute_force(inst: &Instance, k: usize, cfg: &ConnConfig) {
    let dt = RStarTree::bulk_load(inst.points.clone(), 4096);
    let ot = RStarTree::bulk_load(inst.obstacles.clone(), 4096);
    let (res, stats) = QueryEngine::new(*cfg).coknn(&dt, &ot, &inst.q, k);
    res.check_cover().unwrap();
    assert!(stats.npe as usize <= inst.points.len());

    for i in 0..=40 {
        let t = inst.q.len() * (i as f64) / 40.0;
        let want = brute_force_oknn(&inst.points, &inst.obstacles, inst.q.at(t), k);
        let got = res.knn_at(t);
        assert_eq!(
            got.len(),
            want.len().min(k),
            "t={t}: got {got:?} want {want:?}"
        );
        for (j, ((gp, gd), (wp, wd))) in got.iter().zip(&want).enumerate() {
            assert!(
                (gd - wd).abs() < 1e-6,
                "t={t} rank {j}: dist {gd} vs {wd} (points {} vs {})",
                gp.id,
                wp.id
            );
            // identity can differ only under a distance tie
            if (gd - wd).abs() < 1e-6 && gp.id != wp.id {
                // confirm both are genuinely tied
                let alt = want.iter().find(|(p, _)| p.id == gp.id);
                assert!(
                    alt.is_some_and(|(_, d)| (d - gd).abs() < 1e-6),
                    "t={t} rank {j}: {} not tied with {}",
                    gp.id,
                    wp.id
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conn_matches_brute_force(inst in instance()) {
        check_against_brute_force(&inst, 1, &ConnConfig::default());
    }

    #[test]
    fn coknn_matches_brute_force_k3(inst in instance()) {
        check_against_brute_force(&inst, 3, &ConnConfig::default());
    }

    /// A segment through an obstacle: at every sample the answer is brute
    /// force's, which is empty strictly inside an obstacle.
    #[test]
    fn crossing_conn_matches_brute_force(inst in instance_crossing(true)) {
        check_against_brute_force(&inst, 1, &ConnConfig::default());
    }

    #[test]
    fn crossing_coknn_matches_brute_force_k2(inst in instance_crossing(true)) {
        check_against_brute_force(&inst, 2, &ConnConfig::default());
    }

    #[test]
    fn pruning_lemmas_do_not_change_answers(inst in instance()) {
        let dt = RStarTree::bulk_load(inst.points.clone(), 4096);
        let ot = RStarTree::bulk_load(inst.obstacles.clone(), 4096);
        let (full, _) = QueryEngine::default().conn(&dt, &ot, &inst.q);
        let (bare, _) = QueryEngine::new(ConnConfig::no_pruning()).conn(&dt, &ot, &inst.q);
        for i in 0..=30 {
            let t = inst.q.len() * (i as f64) / 30.0;
            match (full.nn_at(t), bare.nn_at(t)) {
                (Some((_, d1)), Some((_, d2))) => prop_assert!((d1 - d2).abs() < 1e-6),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }
        // RLU's Lemma 1 shortcut tests the k-th member at every k
        for k in [2usize, 5] {
            let (full, _) = QueryEngine::default().coknn(&dt, &ot, &inst.q, k);
            let (bare, _) = QueryEngine::new(ConnConfig::no_pruning()).coknn(&dt, &ot, &inst.q, k);
            for i in 0..=30 {
                let t = inst.q.len() * (i as f64) / 30.0;
                let (a, b) = (full.knn_at(t), bare.knn_at(t));
                prop_assert_eq!(a.len(), b.len(), "k={} t={}", k, t);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert!((x.1 - y.1).abs() < 1e-6, "k={} t={} {:?} vs {:?}", k, t, x, y);
                }
            }
        }
    }

    #[test]
    fn one_tree_equals_two_trees(inst in instance()) {
        let dt = RStarTree::bulk_load(inst.points.clone(), 4096);
        let ot = RStarTree::bulk_load(inst.obstacles.clone(), 4096);
        let ut = build_unified_tree(&inst.points, &inst.obstacles, 4096);
        let cfg = ConnConfig::default();
        let (two, _) = QueryEngine::new(cfg).coknn(&dt, &ot, &inst.q, 2);
        let (one, _) = QueryEngine::new(cfg).coknn_single_tree(&ut, &inst.q, 2);
        for i in 0..=30 {
            let t = inst.q.len() * (i as f64) / 30.0;
            let a = two.knn_at(t);
            let b = one.knn_at(t);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x.1 - y.1).abs() < 1e-6, "t={} {:?} vs {:?}", t, x, y);
            }
        }
    }

    /// The front door's CONN is its COkNN at k = 1, bit for bit: the same
    /// result list (`Debug` prints every field), the same work and the
    /// same page reads.
    #[test]
    fn coknn_k1_equals_conn(inst in instance()) {
        let service = ConnService::new(Scene::new(inst.points.clone(), inst.obstacles.clone()));
        let run = |query: conn_core::QueryBuilder| service.execute(&query.build().unwrap()).unwrap();
        let conn = run(Query::conn(inst.q));
        let k1 = run(Query::coknn(inst.q, 1));
        let (a, b) = (conn.answer.as_conn().unwrap(), k1.answer.as_coknn().unwrap());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let work = |s: &QueryStats| {
            (s.npe, s.noe, s.svg_nodes, s.data_io.reads, s.obstacle_io.reads)
        };
        prop_assert_eq!(work(&conn.stats), work(&k1.stats));
    }

    #[test]
    fn sampled_baseline_agrees_with_exact(inst in instance()) {
        let dt = RStarTree::bulk_load(inst.points.clone(), 4096);
        let ot = RStarTree::bulk_load(inst.obstacles.clone(), 4096);
        let (res, _) = QueryEngine::default().conn(&dt, &ot, &inst.q);
        let samples = sampled_conn(&inst.points, &inst.obstacles, &inst.q, 21, 1);
        for s in &samples {
            let got = res.nn_at(s.t);
            match (got, s.neighbors.first()) {
                (Some((_, gd)), Some((_, wd))) => {
                    prop_assert!((gd - wd).abs() < 1e-6, "t={}: {} vs {}", s.t, gd, wd)
                }
                (g, w) => prop_assert_eq!(g.is_none(), w.is_none()),
            }
        }
    }
}
