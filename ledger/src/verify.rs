//! Correctness checks, run outside the timed windows. Structural checks
//! look at one answer alone; cross-checks compare it with an independent
//! route to the same fact (a snapshot ONN at a point of the segment, the
//! generator-side obstacle lookup, the reversed query).

use std::collections::BTreeMap;

use conn_core::{Answer, ConnService, DataPoint, Query, QueryKind};
use conn_datasets::ObstacleLookup;
use conn_geom::{Point, Segment};

use crate::ops::{Done, Op};

/// Every eighth op also gets the independent cross-check.
pub const CROSS_CHECK_EVERY: usize = 8;
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

fn ascending(v: &[(DataPoint, f64)]) -> bool {
    v.windows(2).all(|w| w[0].1 <= w[1].1 + TOL)
}

fn not_below_euclid(from: Point, v: &[(DataPoint, f64)]) -> Result<(), String> {
    match v
        .iter()
        .find(|(p, d)| *d < from.dist(p.pos) * (1.0 - TOL) - TOL)
    {
        Some((p, d)) => Err(format!(
            "point {} at {d} is below its Euclidean distance",
            p.id
        )),
        None => Ok(()),
    }
}

/// Checks one answer on its own: right family, cover of `[0, len]`, at most
/// k results ascending, range within r, no distance below the Euclidean one.
pub fn structural(query: &Query, answer: &Answer) -> Result<(), String> {
    match (query.kind(), answer) {
        (QueryKind::Conn { q }, Answer::Conn(r)) => {
            if r.query() != q {
                return Err("answers another segment".into());
            }
            r.check_cover().map_err(|e| e.to_string())
        }
        (QueryKind::Coknn { q, k }, Answer::Coknn(r)) => {
            if r.query() != q || r.k() != *k {
                return Err("answers another query".into());
            }
            r.check_cover().map_err(|e| e.to_string())?;
            for e in r.entries() {
                let at = r.knn_at(e.interval.midpoint());
                if at.len() > *k || !ascending(&at) {
                    return Err(format!("members out of order at {}", e.interval.midpoint()));
                }
            }
            Ok(())
        }
        (QueryKind::Trajectory { route, .. }, Answer::Trajectory(r)) => {
            if r.trajectory().vertices() != route.vertices() {
                return Err("answers another route".into());
            }
            r.check_cover().map_err(|e| e.to_string())
        }
        (QueryKind::Onn { s, k }, Answer::Onn(v)) => {
            if v.len() > *k || !ascending(v) {
                return Err(format!("{} results for k={k}, or out of order", v.len()));
            }
            not_below_euclid(*s, v)
        }
        (QueryKind::Range { s, radius }, Answer::Range(v)) => {
            if !ascending(v) {
                return Err("out of order".into());
            }
            if let Some((p, d)) = v.iter().find(|(_, d)| *d > radius * (1.0 + TOL)) {
                return Err(format!("point {} at {d} is outside radius {radius}", p.id));
            }
            not_below_euclid(*s, v)
        }
        (QueryKind::Odist { a, b }, Answer::Odist(d)) => point_to_point(*a, *b, *d),
        (QueryKind::Route { a, b }, Answer::Route { dist, path }) => {
            point_to_point(*a, *b, *dist)?;
            match path.as_deref() {
                Some([first, .., last]) if first == a && last == b => Ok(()),
                Some([only]) if a == b && only == a => Ok(()),
                _ => Err("path does not run from a to b".into()),
            }
        }
        (kind, answer) => Err(format!(
            "{} query answered with a {} answer",
            kind.family(),
            answer.family()
        )),
    }
}

fn point_to_point(a: Point, b: Point, d: f64) -> Result<(), String> {
    if !d.is_finite() {
        return Err("free-space endpoints reported unreachable".into());
    }
    if d < a.dist(b) * (1.0 - TOL) - TOL {
        return Err(format!("{d} is below the Euclidean distance {}", a.dist(b)));
    }
    Ok(())
}

fn onn_at(service: &ConnService<'_>, p: Point, k: usize) -> Result<Vec<(DataPoint, f64)>, String> {
    let query = Query::onn(p, k).build().map_err(|e| e.to_string())?;
    let response = service.execute(&query).map_err(|e| e.to_string())?;
    match response.answer {
        Answer::Onn(v) => Ok(v),
        other => Err(format!("onn answered with {}", other.family())),
    }
}

/// The independent cross-check of one answer (see the module docs). ONN and
/// range answers have no second route here and pass.
pub fn cross_check(
    service: &ConnService<'_>,
    lookup: &ObstacleLookup,
    query: &Query,
    answer: &Answer,
) -> Result<(), String> {
    match (query.kind(), answer) {
        (QueryKind::Conn { q }, Answer::Conn(r)) => {
            for frac in [0.25, 0.5, 0.75] {
                let t = frac * q.len();
                let want = onn_at(service, q.at(t), 1)?;
                match (r.nn_at(t), want.first()) {
                    (Some((_, d)), Some((_, w))) if close(d, *w) => {}
                    (None, None) => {}
                    (got, want) => return Err(format!("nn_at({t}) = {got:?}, onn says {want:?}")),
                }
            }
            Ok(())
        }
        (QueryKind::Coknn { q, k }, Answer::Coknn(r)) => {
            for frac in [0.25, 0.5, 0.75] {
                let t = frac * q.len();
                let want = onn_at(service, q.at(t), *k)?;
                let got = r.knn_at(t);
                if got.len() != want.len()
                    || got.iter().zip(&want).any(|((_, d), (_, w))| !close(*d, *w))
                {
                    return Err(format!("knn_at({t}) disagrees with onn at the same point"));
                }
            }
            Ok(())
        }
        (QueryKind::Trajectory { route, .. }, Answer::Trajectory(r)) => {
            // identities only are stored, so compare at tuple midpoints (far
            // from split points) and accept a distance tie with the runner-up
            let segments = r.segments();
            for i in [0, segments.len() / 2, segments.len().saturating_sub(1)] {
                let Some((nn, iv)) = segments.get(i) else {
                    continue;
                };
                let want = onn_at(service, route.at(iv.midpoint()), 2)?;
                let ok = match (nn, want.as_slice()) {
                    (None, []) => true,
                    (Some(p), [first, rest @ ..]) => {
                        p.id == first.0.id
                            || rest.iter().any(|(w, d)| w.id == p.id && close(*d, first.1))
                    }
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "nn at arclength {} disagrees with onn",
                        iv.midpoint()
                    ));
                }
            }
            Ok(())
        }
        (
            QueryKind::Route { .. },
            Answer::Route {
                dist,
                path: Some(path),
            },
        ) => {
            let mut sum = 0.0;
            for w in path.windows(2) {
                if w[0] != w[1] && lookup.segment_blocked(&Segment::new(w[0], w[1])) {
                    return Err(format!("leg {} -> {} crosses an obstacle", w[0], w[1]));
                }
                sum += w[0].dist(w[1]);
            }
            if close(sum, *dist) {
                Ok(())
            } else {
                Err(format!("legs sum to {sum}, reported {dist}"))
            }
        }
        (QueryKind::Odist { a, b }, Answer::Odist(d)) => {
            let back = Query::odist(*b, *a).build().map_err(|e| e.to_string())?;
            let back = service.execute(&back).map_err(|e| e.to_string())?;
            match back.answer.distance() {
                Some(w) if close(*d, w) => Ok(()),
                other => Err(format!("odist(a,b) = {d}, odist(b,a) = {other:?}")),
            }
        }
        _ => Ok(()),
    }
}

/// Verdict over a whole op list: failures (errors, failed structural or
/// cross checks) and the per-family answer digest.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failed: u64,
    pub first_failures: Vec<String>,
    pub answers: BTreeMap<&'static str, (u64, f64)>,
    /// Odist/route answers, and those of them longer than the straight line.
    pub p2p: u64,
    pub detours: u64,
}

impl Verdict {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(what);
        }
    }

    /// Folds one answer into the per-family digest: tuples and the sum of
    /// the distances it reports.
    pub fn digest(&mut self, op: &Op, answer: &Answer) {
        if let QueryKind::Odist { a, b } | QueryKind::Route { a, b } = op.query.kind() {
            self.p2p += 1;
            let d = answer.distance().unwrap_or(0.0);
            self.detours += u64::from(d > a.dist(*b) * (1.0 + TOL));
        }
        let (tuples, sum) = match answer {
            Answer::Conn(r) => (
                r.entries().len() as u64,
                r.entries()
                    .iter()
                    .filter_map(|e| r.nn_at(e.interval.midpoint()))
                    .map(|(_, d)| d)
                    .sum(),
            ),
            Answer::Coknn(r) => (
                r.entries().len() as u64,
                r.entries()
                    .iter()
                    .flat_map(|e| r.knn_at(e.interval.midpoint()))
                    .map(|(_, d)| d)
                    .sum(),
            ),
            Answer::Trajectory(r) => (
                r.segments().len() as u64,
                r.segments().iter().map(|(_, iv)| iv.hi).sum(),
            ),
            Answer::Onn(v) | Answer::Range(v) => (v.len() as u64, v.iter().map(|(_, d)| d).sum()),
            Answer::Odist(d) | Answer::Route { dist: d, .. } => (1, *d),
            _ => (0, 0.0),
        };
        let slot = self.answers.entry(op.fam.label()).or_insert((0, 0.0));
        slot.0 += tuples;
        slot.1 += sum;
    }

    /// `datasets.detour_frac`: the share of odist/route answers that had to
    /// go around something.
    pub fn detour_frac(&self) -> f64 {
        self.detours as f64 / self.p2p.max(1) as f64
    }
}

/// Structural check on every answer, cross-check on every eighth, digest of
/// all; errors count as failures.
pub fn verify_all(
    service: &ConnService<'_>,
    lookup: &ObstacleLookup,
    ops: &[Op],
    done: &[Done],
) -> Verdict {
    let mut verdict = Verdict::default();
    for (i, (op, d)) in ops.iter().zip(done).enumerate() {
        let checked = d.outcome.as_ref().map_err(String::clone).and_then(|r| {
            structural(&op.query, &r.answer)?;
            if i % CROSS_CHECK_EVERY == 0 {
                cross_check(service, lookup, &op.query, &r.answer)?;
            }
            Ok(&r.answer)
        });
        match checked {
            Ok(answer) => verdict.digest(op, answer),
            Err(e) => verdict.fail(format!("op {i} ({}): {e}", op.fam.label())),
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_core::Scene;
    use conn_geom::Rect;

    fn tiny() -> (ConnService<'static>, ObstacleLookup) {
        let obstacles = vec![Rect::new(40.0, 20.0, 60.0, 80.0)];
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 50.0)),
            DataPoint::new(1, Point::new(90.0, 50.0)),
            DataPoint::new(2, Point::new(50.0, 95.0)),
        ];
        let lookup = ObstacleLookup::build(&obstacles);
        (ConnService::new(Scene::new(points, obstacles)), lookup)
    }

    #[test]
    fn honest_answers_pass_and_corrupted_ones_are_caught() {
        let (service, lookup) = tiny();
        let s = Point::new(30.0, 50.0);

        let onn = Query::onn(s, 3).build().unwrap();
        let answer = service.execute(&onn).unwrap().answer;
        assert_eq!(structural(&onn, &answer), Ok(()));
        let Answer::Onn(mut v) = answer else {
            panic!("onn answer")
        };
        v.swap(0, 2);
        assert!(structural(&onn, &Answer::Onn(v.clone())).is_err(), "order");
        v.swap(0, 2);
        v[1].1 = 1.0;
        assert!(structural(&onn, &Answer::Onn(v)).is_err(), "below Euclid");

        let far = Point::new(90.0, 50.0);
        let route = Query::route(s, far).build().unwrap();
        let answer = service.execute(&route).unwrap().answer;
        assert_eq!(structural(&route, &answer), Ok(()));
        assert_eq!(cross_check(&service, &lookup, &route, &answer), Ok(()));
        let through_the_wall = Answer::Route {
            dist: s.dist(far),
            path: Some(vec![s, far]),
        };
        assert_eq!(structural(&route, &through_the_wall), Ok(()));
        assert!(cross_check(&service, &lookup, &route, &through_the_wall).is_err());

        let seg = Segment::new(Point::new(5.0, 10.0), Point::new(95.0, 10.0));
        let conn = Query::conn(seg).build().unwrap();
        let answer = service.execute(&conn).unwrap().answer;
        assert_eq!(structural(&conn, &answer), Ok(()));
        assert_eq!(cross_check(&service, &lookup, &conn, &answer), Ok(()));
        assert!(structural(&onn, &answer).is_err(), "wrong family");

        let range = Query::range(s, 25.0).build().unwrap();
        let outside = Answer::Range(vec![(DataPoint::new(1, far), 80.0)]);
        assert!(structural(&range, &outside).is_err(), "beyond the radius");
    }
}
