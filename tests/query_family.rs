//! Integration tests for the extended obstructed-query family on generated
//! workloads: snapshot ONN, range, reverse-NN, closest pair, e-distance
//! join, visible kNN and trajectory CONN, each answered through the service
//! (visible kNN, which has no `Query` kind, on an engine) and checked
//! against brute force.

use std::sync::Arc;

use conn::baseline::{brute_force_oknn, obstructed_distance};
use conn::datasets;
use conn::prelude::*;
use conn::QueryBuilder;

/// Builds and executes one query, unwrapping both steps.
fn ask(service: &ConnService<'_>, query: QueryBuilder) -> Response {
    service
        .execute(&query.build().expect("valid query"))
        .expect("query executes")
}

fn world(seed: u64, n_pts: usize, n_obs: usize) -> (Vec<DataPoint>, Vec<Rect>) {
    let obstacles = datasets::la_like(n_obs, seed);
    let raw = datasets::uniform_points(n_pts, seed, &obstacles);
    (DataPoint::from_points(&raw), obstacles)
}

#[test]
fn onn_family_agrees_with_brute_force_on_workload() {
    let (points, obstacles) = world(101, 50, 120);
    let service = ConnService::new(Scene::new(points.clone(), obstacles.clone()));
    let probes = datasets::uniform_points(5, 77, &obstacles);

    for s in probes {
        // snapshot ONN
        let onn = ask(&service, Query::onn(s, 4));
        let onn = onn.answer.neighbors().unwrap();
        let want = brute_force_oknn(&points, &obstacles, s, 4);
        assert_eq!(onn.len(), want.len());
        for ((_, gd), (_, wd)) in onn.iter().zip(&want) {
            assert!((gd - wd).abs() < 1e-6);
        }

        // range at the 3rd-NN distance must contain ≥ 3 points
        if want.len() >= 3 {
            let radius = want[2].1 + 1e-9;
            let in_range = ask(&service, Query::range(s, radius));
            let in_range = in_range.answer.neighbors().unwrap();
            assert!(in_range.len() >= 3);
            for (p, d) in in_range {
                assert!(*d <= radius);
                let true_d = obstructed_distance(&obstacles, p.pos, s);
                assert!((d - true_d).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn rnn_counts_are_sane_and_exact() {
    let (points, obstacles) = world(31, 16, 50);
    let service = ConnService::new(Scene::new(points.clone(), obstacles.clone()));
    let s = datasets::uniform_points(1, 5, &obstacles)[0];
    let rnn = ask(&service, Query::rnn(s));
    let rnn = rnn.answer.neighbors().unwrap();
    // brute force cross-check: one whole-field Dijkstra per point, over
    // the other points plus the facility
    let facility = u32::MAX;
    for p in &points {
        let mut rivals: Vec<DataPoint> = points.iter().filter(|o| o.id != p.id).copied().collect();
        rivals.push(DataPoint::new(facility, s));
        let reach = brute_force_oknn(&rivals, &obstacles, p.pos, rivals.len());
        let dist_to = |want_facility: bool| {
            reach
                .iter()
                .find(|(o, _)| (o.id == facility) == want_facility)
                .map_or(f64::INFINITY, |(_, d)| *d)
        };
        let (d_s, best_other) = (dist_to(true), dist_to(false));
        let is_rnn = d_s.is_finite() && d_s < best_other;
        assert_eq!(
            rnn.iter().any(|(r, _)| r.id == p.id),
            is_rnn,
            "point {} misclassified",
            p.id
        );
    }
}

#[test]
fn closest_pair_and_join_on_workload() {
    let obstacles = datasets::la_like(50, 9);
    let a = DataPoint::from_points(&datasets::uniform_points(10, 1, &obstacles));
    let b: Vec<DataPoint> = datasets::uniform_points(10, 2, &obstacles)
        .iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(1000 + i as u32, *p))
        .collect();
    let service = ConnService::new(Scene::new(a.clone(), obstacles.clone()));
    let tb = Arc::new(RStarTree::bulk_load(b.clone(), DEFAULT_PAGE_SIZE));

    let cp = ask(&service, Query::closest_pair(Arc::clone(&tb)));
    let (pa, pb, d) = cp.answer.pair().unwrap().expect("non-empty sets");
    // brute force
    let mut best = f64::INFINITY;
    for x in &a {
        if let Some((_, d)) = brute_force_oknn(&b, &obstacles, x.pos, 1).first() {
            best = best.min(*d);
        }
    }
    assert!((d - best).abs() < 1e-6, "{d} vs {best}");
    let direct = obstructed_distance(&obstacles, pa.pos, pb.pos);
    assert!((d - direct).abs() < 1e-6);

    // the e-join at radius d must contain exactly the closest pair(s)
    let pairs = ask(&service, Query::edistance_join(tb, d + 1e-9));
    let pairs = pairs.answer.pairs().unwrap();
    assert!(!pairs.is_empty());
    assert!(pairs.iter().any(|(x, y, _)| x.id == pa.id && y.id == pb.id));
    for (_, _, pd) in pairs {
        assert!(*pd <= d + 1e-6);
    }
}

#[test]
fn visible_knn_on_workload() {
    let (points, obstacles) = world(55, 50, 120);
    let dt = RStarTree::bulk_load(points.clone(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.clone(), DEFAULT_PAGE_SIZE);
    let s = datasets::uniform_points(1, 3, &obstacles)[0];
    let (vis, _) = QueryEngine::default().visible_knn(&dt, &ot, s, 5);
    // brute force: visible points sorted by euclid
    let mut want: Vec<(u32, f64)> = points
        .iter()
        .filter(|p| !obstacles.iter().any(|r| r.blocks(&Segment::new(s, p.pos))))
        .map(|p| (p.id, p.pos.dist(s)))
        .collect();
    want.sort_by(|a, b| a.1.total_cmp(&b.1));
    want.truncate(5);
    assert_eq!(vis.len(), want.len());
    for ((gp, gd), (wid, wd)) in vis.iter().zip(&want) {
        assert_eq!(gp.id, *wid);
        assert!((gd - wd).abs() < 1e-9);
    }
}

#[test]
fn trajectory_conn_on_workload() {
    let (points, obstacles) = world(71, 40, 100);
    let service = ConnService::new(Scene::new(points.clone(), obstacles.clone()));
    // build a 3-leg trajectory from segment endpoints that avoid obstacles
    let segs = datasets::query_segments(3, 0.03, 13, &obstacles);
    let candidates = vec![segs[0].a, segs[0].b];
    let route = Trajectory::new(candidates);
    let resp = ask(&service, Query::trajectory(route.clone(), 1));
    let plan = resp.answer.as_trajectory().unwrap();
    plan.check_cover().unwrap();
    assert!(resp.stats.npe >= 1);
    for i in 0..=10 {
        let t = route.len() * (i as f64) / 10.0;
        if let Some(p) = plan.nn_at(t) {
            let want = brute_force_oknn(&points, &obstacles, route.at(t), 1)[0];
            let got_d = obstructed_distance(&obstacles, p.pos, route.at(t));
            assert!((got_d - want.1).abs() < 1e-6, "t = {t}");
        }
    }
}
