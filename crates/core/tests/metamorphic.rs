//! Metamorphic relations for CONN and COkNN: an answer commutes with the
//! exact symmetries of the plane. Scaling by a power of two and the
//! reflections x → −x, y → −y and x ↔ y map every coordinate without
//! rounding, so the answer on the mapped scene, mapped back, must equal the
//! answer on the original bit for bit: the same members, positions, control
//! points, bases and interval ends. No oracle is needed, so the relations
//! reach scenes too large for brute force.
//!
//! A scale is exact on coordinates but not on the kernel's tolerance:
//! `EPS` is absolute, so two distance functions within `EPS` of each other
//! are a tie on one side of the map and not on the other, and the two
//! answers may cut such a near-tie differently (a few fresh cases in ten
//! thousand at 1/1024). A scaled answer that is not bit-identical must
//! still give the same distances at every sample, to within the tolerance
//! at the coarser of the two scales.

use conn_core::{CoknnResult, DataPoint, QueryEngine};
use conn_geom::{Point, Rect, Segment, EPS};
use conn_index::RStarTree;
use proptest::prelude::*;

/// An exact map of the plane.
#[derive(Debug, Clone, Copy)]
enum Transform {
    /// Scale about the origin by a power of two.
    Scale(f64),
    /// x → −x.
    MirrorX,
    /// y → −y.
    MirrorY,
    /// x ↔ y.
    Swap,
}

const TRANSFORMS: [Transform; 5] = [
    Transform::Scale(2.0),
    Transform::Scale(1.0 / 1024.0),
    Transform::MirrorX,
    Transform::MirrorY,
    Transform::Swap,
];

impl Transform {
    fn point(self, p: Point) -> Point {
        match self {
            Transform::Scale(s) => Point::new(p.x * s, p.y * s),
            Transform::MirrorX => Point::new(-p.x, p.y),
            Transform::MirrorY => Point::new(p.x, -p.y),
            Transform::Swap => Point::new(p.y, p.x),
        }
    }

    fn rect(self, r: &Rect) -> Rect {
        let (a, b) = (
            self.point(Point::new(r.min_x, r.min_y)),
            self.point(Point::new(r.max_x, r.max_y)),
        );
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// A length (a distance, a base, a parameter along `q`).
    fn length(self, d: f64) -> f64 {
        match self {
            Transform::Scale(s) => d * s,
            _ => d,
        }
    }

    fn inverse(self) -> Transform {
        match self {
            Transform::Scale(s) => Transform::Scale(1.0 / s),
            other => other,
        }
    }
}

/// At every one of 41 samples of the query, `got` (the answer on the image
/// under scale `s`) and `want` give the same k distances, to within twice
/// `EPS` at the coarser scale.
fn agree_within_scaled_eps(s: f64, got: &CoknnResult, want: &CoknnResult) -> bool {
    let tol = 2.0 * EPS * s.recip().max(1.0);
    (0..=40).all(|i| {
        let t = want.query().len() * f64::from(i) / 40.0;
        let (g, w) = (got.knn_at(t * s), want.knn_at(t));
        g.len() == w.len()
            && g.iter()
                .zip(&w)
                .all(|((_, gd), (_, wd))| (gd / s - wd).abs() <= tol)
    })
}

/// One entry, bit for bit: its interval ends and, per member, the point's
/// id and position and its control point's position and base.
type EntryBits = (u64, u64, Vec<(u32, [u64; 5])>);

/// Every field of `res`, mapped by `map` and taken bit for bit.
fn bits(res: &CoknnResult, map: Transform) -> Vec<EntryBits> {
    res.entries()
        .iter()
        .map(|e| {
            let members = e
                .members
                .iter()
                .map(|m| {
                    let (p, cp) = (map.point(m.point.pos), map.point(m.cp.pos));
                    let base = map.length(m.cp.base);
                    let bits = [p.x, p.y, cp.x, cp.y, base].map(f64::to_bits);
                    (m.point.id, bits)
                })
                .collect();
            let (lo, hi) = (map.length(e.interval.lo), map.length(e.interval.hi));
            (lo.to_bits(), hi.to_bits(), members)
        })
        .collect()
}

/// Runs CONN and COkNN (k = 3) on every query of the scene and on its
/// image under every transform, and returns the first answer that does not
/// map back bit for bit (or, under a scale, agree within the scaled `EPS`).
fn check_scene(
    points: &[DataPoint],
    obstacles: &[Rect],
    queries: &[Segment],
) -> Result<(), String> {
    let answers = |t: Option<Transform>| {
        let map = |p: Point| t.map_or(p, |t| t.point(p));
        let pts: Vec<DataPoint> = points
            .iter()
            .map(|p| DataPoint::new(p.id, map(p.pos)))
            .collect();
        let obs: Vec<Rect> = obstacles
            .iter()
            .map(|r| t.map_or(*r, |t| t.rect(r)))
            .collect();
        let dt = RStarTree::bulk_load(pts, 4096);
        let ot = RStarTree::bulk_load(obs, 4096);
        let mut engine = QueryEngine::default();
        let mut out = Vec::new();
        for q in queries {
            let q = Segment::new(map(q.a), map(q.b));
            let (conn, _) = engine.conn(&dt, &ot, &q);
            let (knn, _) = engine.coknn(&dt, &ot, &q, 3);
            out.push((conn, knn));
        }
        out
    };
    let want = answers(None);
    for t in TRANSFORMS {
        let back = t.inverse();
        for (i, ((conn, knn), (want_conn, want_knn))) in
            answers(Some(t)).iter().zip(&want).enumerate()
        {
            for (k, got, want) in [(1, conn, want_conn), (3, knn, want_knn)] {
                let near_tie = match t {
                    Transform::Scale(s) => agree_within_scaled_eps(s, got, want),
                    _ => false,
                };
                if bits(got, back) != bits(want, Transform::Scale(1.0)) && !near_tie {
                    return Err(format!(
                        "{t:?}, query {i}, k = {k}: {:?} maps back to a different answer than {:?}",
                        got.entries(),
                        want.entries()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// A scene of disjoint obstacles, free data points and one query segment
/// (which may cross an obstacle).
fn scene() -> impl Strategy<Value = (Vec<DataPoint>, Vec<Rect>, Segment)> {
    let obstacles =
        prop::collection::vec((pt(), 10.0..120.0f64, 10.0..120.0f64), 0..10).prop_map(|specs| {
            let mut out: Vec<Rect> = Vec::new();
            for (p, w, h) in specs {
                let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
                if !out.iter().any(|o| o.intersects(&r)) {
                    out.push(r);
                }
            }
            out
        });
    (obstacles, prop::collection::vec(pt(), 1..25), pt(), pt()).prop_filter_map(
        "no free point or a short query",
        |(obs, raw, a, b)| {
            let points: Vec<DataPoint> = raw
                .into_iter()
                .filter(|p| !obs.iter().any(|r| r.strictly_contains(*p)))
                .enumerate()
                .map(|(i, p)| DataPoint::new(i as u32, p))
                .collect();
            let q = Segment::new(a, b);
            (!points.is_empty() && q.len() >= 50.0).then_some((points, obs, q))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn answers_commute_with_exact_maps(scene in scene()) {
        let (points, obstacles, q) = scene;
        let verdict = check_scene(&points, &obstacles, &[q]);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// The same relations on a city-like scene of 1 500 obstacles and 1 500
/// points.
#[test]
fn la_like_answers_commute_with_exact_maps() {
    let obstacles = conn_datasets::la_like(1_500, 3);
    let points: Vec<DataPoint> = conn_datasets::uniform_points(1_500, 4, &obstacles)
        .into_iter()
        .enumerate()
        .map(|(i, p)| DataPoint::new(i as u32, p))
        .collect();
    let queries = conn_datasets::query_segments(4, 0.045, 5, &obstacles);
    check_scene(&points, &obstacles, &queries).unwrap();
}
