//! Integration tests for the extended obstructed-query family on generated
//! workloads: snapshot ONN, range and trajectory CONN, each answered through
//! the service and checked against brute force.

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
        if let Some((p, d)) = plan.nn_at(t) {
            let want = brute_force_oknn(&points, &obstacles, route.at(t), 1)[0];
            let got_d = obstructed_distance(&obstacles, p.pos, route.at(t));
            assert!((got_d - want.1).abs() < 1e-6, "t = {t}");
            assert!((d - want.1).abs() < 1e-6, "t = {t}: the plan says {d}");
        }
    }
}
