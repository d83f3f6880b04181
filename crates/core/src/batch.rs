//! Batch telemetry.
//!
//! There is one way to run a batch —
//! [`crate::ConnService::execute_batch_threads`] (any mix of families, over
//! [`crate::Scene::borrowing`] when the caller holds the trees, `0` threads
//! for the available parallelism) on the service's persistent
//! [`crate::EnginePool`] — and
//! [`BatchStats`] is what it reports beside the responses. Every response
//! carries its own query's stats, tree I/O included (the page meters are the
//! worker engines', not the shared trees'), so the batch totals are plain
//! sums.

use std::time::Duration;

use crate::stats::QueryStats;

/// Aggregated telemetry of one batch run
/// ([`crate::ConnService::execute_batch_threads`]).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct BatchStats {
    /// Number of queries answered.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// The per-query stats, summed.
    pub pooled: QueryStats,
    /// Mean per-query CPU latency, in seconds.
    pub mean_s: f64,
    /// Median per-query CPU latency, in seconds.
    pub p50_s: f64,
    /// 99th-percentile per-query CPU latency, in seconds.
    pub p99_s: f64,
    /// Batch throughput in queries per second of wall time.
    pub throughput_qps: f64,
}

impl BatchStats {
    /// The telemetry of a batch whose queries reported `per_query`, run on
    /// `threads` workers in `wall`.
    pub(crate) fn new(threads: usize, wall: Duration, per_query: &[QueryStats]) -> Self {
        let mut pooled = QueryStats::default();
        for s in per_query {
            pooled.accumulate(s);
        }
        let mut lat: Vec<f64> = per_query.iter().map(|s| s.cpu.as_secs_f64()).collect();
        lat.sort_by(f64::total_cmp);
        let pick = |p: f64| -> f64 {
            let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
            lat.get(idx).or(lat.last()).copied().unwrap_or(0.0)
        };
        BatchStats {
            queries: per_query.len(),
            threads,
            wall,
            pooled,
            mean_s: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
            p50_s: pick(0.5),
            p99_s: pick(0.99),
            throughput_qps: if wall.as_secs_f64() > 0.0 {
                per_query.len() as f64 / wall.as_secs_f64()
            } else {
                f64::INFINITY
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConnConfig;
    use crate::types::DataPoint;
    use crate::{
        Answer, ConnService, Query, QueryEngine, Response, Scene, Trajectory, TrajectorySession,
    };
    use conn_geom::{Point, Rect, Segment};
    use conn_index::{RStarTree, StatsSnapshot};

    fn setup(n_queries: usize) -> (RStarTree<DataPoint>, RStarTree<Rect>, Vec<Segment>) {
        let points: Vec<DataPoint> = (0..24)
            .map(|i| {
                DataPoint::new(
                    i,
                    Point::new((i as f64 * 37.0) % 300.0, (i as f64 * 91.0) % 200.0),
                )
            })
            .collect();
        let obstacles = vec![
            Rect::new(40.0, 20.0, 60.0, 80.0),
            Rect::new(120.0, 50.0, 150.0, 70.0),
            Rect::new(200.0, 10.0, 220.0, 120.0),
        ];
        let queries: Vec<Segment> = (0..n_queries)
            .map(|i| {
                let x = (i as f64 * 23.0) % 250.0;
                let y = (i as f64 * 17.0) % 150.0;
                Segment::new(Point::new(x, y), Point::new(x + 60.0, y + 5.0))
            })
            .collect();
        (
            RStarTree::bulk_load(points, 4096),
            RStarTree::bulk_load(obstacles, 4096),
            queries,
        )
    }

    /// One batch of `queries` over borrowed trees, `threads` workers.
    fn run(
        dt: &RStarTree<DataPoint>,
        ot: &RStarTree<Rect>,
        queries: Vec<Query>,
        threads: usize,
    ) -> (Vec<Response>, BatchStats) {
        ConnService::new(Scene::borrowing(dt, ot))
            .execute_batch_threads(&queries, threads)
            .unwrap()
    }

    fn conn_queries(segs: &[Segment]) -> Vec<Query> {
        segs.iter()
            .map(|q| Query::conn(*q).build().unwrap())
            .collect()
    }

    #[test]
    fn batch_matches_serial_conn() {
        let (dt, ot, queries) = setup(16);
        let cfg = ConnConfig::default();
        let (batch, stats) = run(&dt, &ot, conn_queries(&queries), 2);
        assert_eq!(batch.len(), queries.len());
        assert_eq!(stats.queries, queries.len());
        assert!(stats.threads >= 1 && stats.threads <= 2);
        for (resp, q) in batch.iter().zip(&queries) {
            let (serial, serial_stats) = QueryEngine::new(cfg).conn(&dt, &ot, q);
            let res = resp.answer.as_conn().unwrap();
            assert_eq!(format!("{res:?}"), format!("{serial:?}"));
            assert_eq!(resp.stats.data_io, serial_stats.data_io);
            assert_eq!(resp.stats.obstacle_io, serial_stats.obstacle_io);
        }
        // engines are reused: at most one fresh workspace per worker
        assert!(stats.pooled.reuse.graph_reuses >= (queries.len() - stats.threads) as u64);
        assert!(stats.pooled.reads() > 0, "pooled tree I/O missing");
    }

    #[test]
    fn batch_matches_serial_coknn() {
        let (dt, ot, queries) = setup(10);
        let cfg = ConnConfig::default();
        let typed = queries
            .iter()
            .map(|q| Query::coknn(*q, 3).build().unwrap())
            .collect();
        let (batch, stats) = run(&dt, &ot, typed, 0);
        assert_eq!(batch.len(), queries.len());
        for (resp, q) in batch.iter().zip(&queries) {
            let (serial, _) = QueryEngine::new(cfg).coknn(&dt, &ot, q, 3);
            let res = resp.answer.as_coknn().unwrap();
            assert_eq!(res.entries().len(), serial.entries().len());
        }
        assert!(stats.p50_s <= stats.p99_s + 1e-12);
        assert!(stats.mean_s > 0.0);
        assert!(stats.throughput_qps > 0.0);
    }

    #[test]
    fn trajectory_batch_matches_serial_sessions() {
        let (dt, ot, _) = setup(0);
        let routes: Vec<Trajectory> = (0..6)
            .map(|i| {
                let x = (i as f64 * 31.0) % 180.0;
                let y = (i as f64 * 19.0) % 120.0;
                Trajectory::new(vec![
                    Point::new(x, y),
                    Point::new(x + 50.0, y + 5.0),
                    Point::new(x + 50.0, y + 60.0),
                    Point::new(x + 5.0, y + 60.0),
                ])
            })
            .collect();
        let cfg = ConnConfig::default();
        let fleet = routes
            .iter()
            .map(|r| Query::trajectory(r.clone(), 1).build().unwrap())
            .collect();
        let (batch, stats) = run(&dt, &ot, fleet, 2);
        assert_eq!(batch.len(), routes.len());
        assert_eq!(stats.queries, routes.len());
        for (resp, traj) in batch.iter().zip(&routes) {
            let Answer::Trajectory(res) = &resp.answer else {
                panic!("trajectory query answered as {}", resp.answer.family());
            };
            res.check_cover().unwrap();
            let mut session = TrajectorySession::new(&dt, &ot, traj.vertices()[0], 1, cfg);
            for &v in &traj.vertices()[1..] {
                session.push_leg(v).unwrap();
            }
            let (serial, _) = session.finish().unwrap();
            let serial = serial.into_trajectory().unwrap();
            assert_eq!(res.segments().len(), serial.segments().len());
            for (a, b) in res.segments().iter().zip(serial.segments()) {
                assert_eq!(a.0.map(|p| p.id), b.0.map(|p| p.id));
                assert_eq!(a.1.lo.to_bits(), b.1.lo.to_bits());
                assert_eq!(a.1.hi.to_bits(), b.1.hi.to_bits());
            }
        }
        assert!(stats.pooled.reads() > 0, "pooled tree I/O missing");
        // workers reuse their engine across legs and trajectories: every
        // leg but each worker's first re-binds a primed workspace
        assert!(stats.pooled.reuse.graph_reuses > routes.len() as u64);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (dt, ot, _) = setup(0);
        let (res, stats) = run(&dt, &ot, Vec::new(), 4);
        assert!(res.is_empty());
        assert_eq!(stats.queries, 0);
        assert_eq!((stats.mean_s, stats.p99_s), (0.0, 0.0));
    }

    #[test]
    fn oversized_pool_is_clamped() {
        let (dt, ot, queries) = setup(3);
        let (_, stats) = run(&dt, &ot, conn_queries(&queries), 64);
        assert!(stats.threads <= 3);
    }

    #[test]
    fn pooled_is_the_sum_of_the_queries() {
        let snap = |reads, faults| StatsSnapshot { reads, faults };
        let per_query: Vec<QueryStats> = (1..=4u64)
            .map(|i| QueryStats {
                data_io: snap(10 * i, i),
                obstacle_io: snap(i, i),
                cpu: Duration::from_millis(100 * i),
                ..Default::default()
            })
            .collect();
        let b = BatchStats::new(2, Duration::from_secs(1), &per_query);
        assert_eq!((b.queries, b.threads), (4, 2));
        assert_eq!(b.pooled.data_io, snap(100, 10));
        assert_eq!(b.pooled.obstacle_io, snap(10, 10));
        assert!((b.mean_s - 0.25).abs() < 1e-12 && b.p50_s <= b.p99_s);
        assert!((b.throughput_qps - 4.0).abs() < 1e-12);
    }
}
