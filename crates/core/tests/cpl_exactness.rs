//! CPLC (Algorithm 2) for a single data point: its control-point list must
//! reproduce the exact obstructed distance `‖p, q(t)‖` at every parameter —
//! the distance that a full-visibility-graph Dijkstra from `q(t)` computes.
//!
//! CPLC is private, so it is reached through CONN over a scene holding
//! only `p`: with one data point, result-list update has nothing to merge
//! and no incumbent bound, so the answer *is* `CPL(p, q)` over the
//! obstacles IOR loaded — and IOR must have loaded enough for every value
//! to be exact.

use conn_core::baseline::obstructed_distance;
use conn_core::{ConnConfig, DataPoint, QueryEngine};
use conn_geom::{Point, Rect, Segment};
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..600.0f64, 0.0..600.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn obstacles() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((pt(), 10.0..100.0f64, 10.0..100.0f64), 0..8).prop_map(|specs| {
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

/// The single point's distance at 33 evenly spaced parameters of `q`.
fn cpl_values(
    obstacles: &[Rect],
    ppos: Point,
    q: &Segment,
    cfg: &ConnConfig,
) -> Vec<(f64, Option<f64>)> {
    let data = RStarTree::bulk_load(vec![DataPoint::new(0, ppos)], DEFAULT_PAGE_SIZE);
    let obs = RStarTree::bulk_load(obstacles.to_vec(), DEFAULT_PAGE_SIZE);
    let (cpl, _) = QueryEngine::new(*cfg).conn(&data, &obs, q);
    cpl.check_cover().unwrap();
    (0..=32)
        .map(|i| {
            let t = q.len() * (i as f64) / 32.0;
            (t, cpl.nn_at(t).map(|(_, d)| d))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cpl_reproduces_exact_obstructed_distances(
        obs in obstacles(),
        praw in pt(),
        qa in pt(),
        qb in pt(),
    ) {
        let q = Segment::new(qa, qb);
        if q.len() < 40.0 || obs.iter().any(|r| r.blocks(&q)) {
            return Ok(());
        }
        // free data point
        let mut ppos = praw;
        let mut tries = 0;
        while obs.iter().any(|r| r.strictly_contains(ppos)) && tries < 50 {
            ppos = Point::new((ppos.x + 173.1) % 600.0, (ppos.y + 97.7) % 600.0);
            tries += 1;
        }
        if obs.iter().any(|r| r.strictly_contains(ppos)) {
            return Ok(());
        }
        let cfg = ConnConfig::default();
        for (t, got) in cpl_values(&obs, ppos, &q, &cfg) {
            let want = obstructed_distance(&obs, ppos, q.at(t));
            match got {
                Some(v) => prop_assert!(
                    (v - want).abs() < 1e-6,
                    "t={} cpl={} brute={}", t, v, want
                ),
                None => prop_assert!(
                    want.is_infinite(),
                    "t={}: CPL has no value but point is reachable at {}", t, want
                ),
            }
        }
    }

    /// Lemma switches change work, never values.
    #[test]
    fn cpl_invariant_under_lemma_toggles(
        obs in obstacles(),
        praw in pt(),
        qa in pt(),
        qb in pt(),
    ) {
        let q = Segment::new(qa, qb);
        if q.len() < 40.0 || obs.iter().any(|r| r.blocks(&q)) {
            return Ok(());
        }
        if obs.iter().any(|r| r.strictly_contains(praw)) {
            return Ok(());
        }
        let base = cpl_values(&obs, praw, &q, &ConnConfig::default());
        for cfg in [
            ConnConfig::no_pruning(),
            ConnConfig { use_lemma6: false, ..ConnConfig::default() },
            ConnConfig { use_lemma7: false, ..ConnConfig::default() },
        ] {
            for ((t1, a), (t2, b)) in base.iter().zip(cpl_values(&obs, praw, &q, &cfg)) {
                prop_assert_eq!(*t1, t2);
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-6, "t={}", t1),
                    (None, None) => {}
                    _ => prop_assert!(false, "coverage differs at t={}", t1),
                }
            }
        }
    }
}
