//! The sanitizer must observe, never steer: with the `sanitize-invariants`
//! feature compiled in, answers must be byte-identical whether the runtime
//! switch is on or off. This is the contract that lets CI run the sanitized
//! suite as a drop-in.
//!
//! Byte identity is asserted through `Debug` formatting: Rust's `f64`
//! Debug output is shortest-roundtrip and injective (distinct bit patterns
//! print distinctly, including `-0.0`), so equal strings mean equal bits.
//!
//! The runtime switch is process-global; this file deliberately holds a
//! single `#[test]` so nothing races the toggling.

#![cfg(feature = "sanitize-invariants")]

use conn::datasets::{ca_like, la_like, query_segment, uniform_points};
use conn::geom::sanitize;
use conn::prelude::*;
use proptest::prelude::*;

/// A reproducible workload: LA-like obstacles, uniform or CA-like
/// clustered points, and an obstacle-avoiding query segment.
fn scene(seed: u64, clustered: bool) -> (Vec<DataPoint>, Vec<Rect>, Segment) {
    let obstacles = la_like(40, seed);
    let raw = if clustered {
        ca_like(50, seed ^ 0xC0FFEE, &obstacles)
    } else {
        uniform_points(50, seed ^ 0xC0FFEE, &obstacles)
    };
    let points = raw
        .into_iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(i as u32, p))
        .collect();
    let q = query_segment(0.05, seed ^ 0xBEEF, &obstacles);
    (points, obstacles, q)
}

/// Runs CONN + COkNN on the scene and renders both answers to their full
/// Debug form (query segment, every interval boundary, every distance).
fn answers(points: &[DataPoint], obstacles: &[Rect], q: &Segment, cfg: &ConnConfig) -> String {
    let dt = RStarTree::bulk_load(points.to_vec(), DEFAULT_PAGE_SIZE);
    let ot = RStarTree::bulk_load(obstacles.to_vec(), DEFAULT_PAGE_SIZE);
    let (conn_res, _) = QueryEngine::new(*cfg).conn(&dt, &ot, q);
    let (coknn_res, _) = QueryEngine::new(*cfg).coknn(&dt, &ot, q, 3);
    format!("{conn_res:?}\n{coknn_res:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn sanitizer_never_changes_answers(seed in 0u64..1 << 32, clustered in any::<bool>()) {
        let (points, obstacles, q) = scene(seed, clustered);
        for cfg in [ConnConfig::default(), ConnConfig::baseline_kernel()] {
            sanitize::set_enabled(false);
            let off = answers(&points, &obstacles, &q, &cfg);
            sanitize::set_enabled(true);
            let on = answers(&points, &obstacles, &q, &cfg);
            prop_assert_eq!(
                off,
                on,
                "audits changed the answer (seed {}, clustered {})",
                seed,
                clustered
            );
        }
    }
}
