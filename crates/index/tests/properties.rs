//! Property-based tests for the R*-tree: structural invariants and agreement
//! with linear scans, under both incremental insertion and bulk loading.

use conn_geom::{Point, Rect, Segment};
use conn_index::{IoMeter, RStarTree};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inserted_tree_keeps_invariants(pts in prop::collection::vec(pt(), 1..300)) {
        let mut t: RStarTree<Point> = RStarTree::with_fanout(6, 2);
        for p in &pts {
            t.insert(*p);
        }
        prop_assert!(t.check_invariants().is_ok());
        prop_assert_eq!(t.len(), pts.len());
    }

    #[test]
    fn bulk_tree_keeps_invariants(pts in prop::collection::vec(pt(), 1..600)) {
        let t = RStarTree::bulk_load_with_fanout(pts.clone(), 10, 4);
        prop_assert!(t.check_invariants().is_ok());
        prop_assert_eq!(t.len(), pts.len());
    }

    #[test]
    fn knn_agrees_with_linear_scan(pts in prop::collection::vec(pt(), 1..200), q in pt(), k in 1usize..10) {
        let t = RStarTree::bulk_load_with_fanout(pts.clone(), 8, 3);
        let got = t.knn(q, k);
        let mut dists: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        dists.sort_by(f64::total_cmp);
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for (i, (_, d)) in got.iter().enumerate() {
            prop_assert!((d - dists[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn segment_stream_sorted_and_complete(
        pts in prop::collection::vec(pt(), 1..200),
        a in pt(), b in pt(),
    ) {
        let t = RStarTree::bulk_load_with_fanout(pts.clone(), 8, 3);
        let q = Segment::new(a, b);
        let got: Vec<(Point, f64)> = t.nearest_iter(q).collect();
        prop_assert_eq!(got.len(), pts.len());
        for w in got.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-9);
        }
        for (p, d) in &got {
            prop_assert!((q.dist_to_point(*p) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn range_agrees_with_filter(
        pts in prop::collection::vec(pt(), 0..200),
        w in (pt(), 1.0..400.0f64, 1.0..400.0f64),
    ) {
        let t = RStarTree::bulk_load_with_fanout(pts.clone(), 8, 3);
        let window = Rect::new(w.0.x, w.0.y, w.0.x + w.1, w.0.y + w.2);
        let meter = IoMeter::default();
        let got = t.range_metered(&window, &meter);
        let want = pts.iter().filter(|p| window.contains(**p)).count();
        prop_assert_eq!(got.len(), want);
        prop_assert_eq!(t.range(&window).len(), want);
        prop_assert!(pts.is_empty() || meter.snapshot().reads >= 1);
    }

    /// The meter observes the traversal, it never steers it: metered and
    /// unmetered streams are the same sequence, logical reads do not depend
    /// on the buffer size, and faults never exceed reads (with equality
    /// when nothing is buffered).
    #[test]
    fn meter_observes_without_steering(
        pts in prop::collection::vec(pt(), 1..300),
        queries in prop::collection::vec((pt(), 1usize..40), 1..6),
        buffer_pages in 0usize..24,
    ) {
        let t = RStarTree::bulk_load_with_fanout(pts, 6, 2);
        let unbuffered = IoMeter::default();
        let mut buffered = IoMeter::default();
        buffered.set_buffer_pages(buffer_pages);
        for (q, take) in queries {
            let plain: Vec<(Point, f64)> = t.nearest_iter(q).take(take).collect();
            for meter in [&unbuffered, &buffered] {
                let got: Vec<(Point, f64)> = t.nearest_iter_metered(q, meter).take(take).collect();
                prop_assert_eq!(&got, &plain);
            }
        }
        let (cold, warm) = (unbuffered.snapshot(), buffered.snapshot());
        prop_assert_eq!(cold.faults, cold.reads);
        prop_assert_eq!(warm.reads, cold.reads);
        prop_assert!(warm.faults <= warm.reads);
        if buffer_pages == 0 {
            prop_assert_eq!(warm.faults, warm.reads);
        }
    }

    #[test]
    fn insert_delete_interleavings_match_model(
        ops in prop::collection::vec((pt(), prop::bool::weighted(0.35)), 1..250),
    ) {
        // model: multiset of live points; delete picks pseudo-randomly
        let mut t: RStarTree<Point> = RStarTree::with_fanout(6, 2);
        let mut live: Vec<Point> = Vec::new();
        for (p, is_delete) in ops {
            if is_delete && !live.is_empty() {
                let idx = (p.x as usize) % live.len();
                let victim = live.swap_remove(idx);
                let removed = t.delete_by_mbr(&Rect::from_point(victim));
                prop_assert!(removed.is_some(), "lost {victim}");
            } else {
                t.insert(p);
                live.push(p);
            }
            prop_assert!(t.check_invariants().is_ok());
        }
        prop_assert_eq!(t.len(), live.len());
        // every live point findable, in both directions
        prop_assert_eq!(t.iter_items().count(), live.len());
        for p in live.iter().take(20) {
            let hit = t.knn(*p, 1);
            prop_assert!(hit[0].1 < 1e-9);
        }
    }

    #[test]
    fn mixed_bulk_then_insert_stays_valid(
        base in prop::collection::vec(pt(), 1..200),
        extra in prop::collection::vec(pt(), 1..100),
    ) {
        let mut t = RStarTree::bulk_load_with_fanout(base.clone(), 8, 3);
        for p in &extra {
            t.insert(*p);
        }
        prop_assert!(t.check_invariants().is_ok());
        prop_assert_eq!(t.len(), base.len() + extra.len());
        // every point still findable with a zero-radius knn
        for p in extra.iter().take(10) {
            let (found, d) = &t.knn(*p, 1)[0];
            prop_assert!(*d < 1e-9, "nearest to {p} was {found} at {d}");
        }
    }
}
