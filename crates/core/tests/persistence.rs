//! Persistence round-trips for the query-layer item types, including a
//! "build once, query later" flow over a saved unified tree.

use conn_core::{build_unified_tree, ConnConfig, DataPoint, QueryEngine, SpatialObject};
use conn_geom::{Point, Rect, Segment};
use conn_index::RStarTree;

fn world() -> (Vec<DataPoint>, Vec<Rect>) {
    let points = (0..300)
        .map(|i| {
            DataPoint::new(
                i,
                Point::new((i as f64 * 733.0) % 997.0, (i as f64 * 131.0) % 883.0),
            )
        })
        .collect();
    let obstacles = (0..120)
        .map(|i| {
            let x = (i as f64 * 617.0) % 900.0;
            let y = (i as f64 * 239.0) % 900.0;
            Rect::new(x, y, x + 14.0, y + 6.0)
        })
        .collect();
    (points, obstacles)
}

#[test]
fn data_point_tree_roundtrip() {
    let (points, _) = world();
    let tree = RStarTree::bulk_load(points, 4096);
    let mut bytes = Vec::new();
    tree.save(&mut bytes).unwrap();
    let loaded: RStarTree<DataPoint> = RStarTree::load(&bytes[..]).unwrap();
    loaded.check_invariants().unwrap();
    assert_eq!(loaded.len(), tree.len());
    // ids survive
    let q = Point::new(500.0, 500.0);
    for ((a, da), (b, db)) in tree.knn(q, 20).iter().zip(loaded.knn(q, 20).iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(da, db);
    }
}

#[test]
fn unified_tree_roundtrip_preserves_query_answers() {
    let (points, obstacles) = world();
    let unified = build_unified_tree(&points, &obstacles, 4096);
    let mut bytes = Vec::new();
    unified.save(&mut bytes).unwrap();
    let loaded: RStarTree<SpatialObject> = RStarTree::load(&bytes[..]).unwrap();
    loaded.check_invariants().unwrap();
    assert_eq!(loaded.len(), points.len() + obstacles.len());

    let q = Segment::new(Point::new(100.0, 100.0), Point::new(400.0, 250.0));
    let cfg = ConnConfig::default();
    let (orig, _) = QueryEngine::new(cfg).coknn_single_tree(&unified, &q, 3);
    let (from_disk, _) = QueryEngine::new(cfg).coknn_single_tree(&loaded, &q, 3);
    for i in 0..=20 {
        let t = q.len() * (i as f64) / 20.0;
        let (a, b) = (orig.knn_at(t), from_disk.knn_at(t));
        assert_eq!(a.len(), b.len(), "t = {t}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.id, y.0.id);
            assert!((x.1 - y.1).abs() < 1e-12);
        }
    }
}

#[test]
fn saved_trees_give_same_answers_as_fresh_builds() {
    let (points, obstacles) = world();
    let dt = RStarTree::bulk_load(points.clone(), 4096);
    let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
    let (mut db, mut ob) = (Vec::new(), Vec::new());
    dt.save(&mut db).unwrap();
    ot.save(&mut ob).unwrap();
    let dt2: RStarTree<DataPoint> = RStarTree::load(&db[..]).unwrap();
    let ot2: RStarTree<Rect> = RStarTree::load(&ob[..]).unwrap();

    let q = Segment::new(Point::new(50.0, 700.0), Point::new(420.0, 640.0));
    let cfg = ConnConfig::default();
    let (a, _) = QueryEngine::new(cfg).coknn(&dt, &ot, &q, 2);
    let (b, _) = QueryEngine::new(cfg).coknn(&dt2, &ot2, &q, 2);
    for i in 0..=15 {
        let t = q.len() * (i as f64) / 15.0;
        let (x, y) = (a.knn_at(t), b.knn_at(t));
        assert_eq!(x.len(), y.len());
        for (u, v) in x.iter().zip(&y) {
            assert_eq!(u.0.id, v.0.id);
            assert!((u.1 - v.1).abs() < 1e-12);
        }
    }
}
