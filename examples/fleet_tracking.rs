//! Streaming trajectory sessions: a delivery fleet moving through a city,
//! served through the typed [`ConnService`] front door.
//!
//! Several vans drive multi-leg routes between warehouse blocks. Each van
//! thread holds its own [`ConnService`] over the shared R\*-trees and
//! opens a streaming session behind it: every position ping extends the
//! trajectory by one leg and immediately answers that leg — which depot
//! is nearest (by actual travel distance) along the stretch just driven,
//! shifted to the distance driven so far.
//!
//! Dispatch also keeps an ETA line per van: a typed `Route` query from
//! the depot to the van's latest position, answered per ping on the
//! service's warm engine, which loads only the blocks inside the
//! depot–van ellipse from the obstacle tree (watch the `obstacle loads`
//! counter against the city's block count).
//!
//! ```text
//! cargo run --release --example fleet_tracking
//! ```

use conn::prelude::*;

#[expect(
    clippy::disallowed_methods,
    reason = "one thread per van: each stands for an independent client with a service of its own"
)]
fn main() {
    // Depots the vans are served from.
    let depots = vec![
        DataPoint::new(0, Point::new(120.0, 150.0)),
        DataPoint::new(1, Point::new(880.0, 180.0)),
        DataPoint::new(2, Point::new(500.0, 860.0)),
    ];
    // City blocks: an irregular grid of buildings.
    let mut blocks = Vec::new();
    for i in 0..5 {
        for j in 0..4 {
            let (x, y) = (140.0 + i as f64 * 165.0, 260.0 + j as f64 * 150.0);
            if (i + 2 * j) % 4 != 1 {
                blocks.push(Rect::new(x, y, x + 95.0, y + 75.0));
            }
        }
    }
    let depot_tree = RStarTree::bulk_load(depots.clone(), DEFAULT_PAGE_SIZE);
    let block_tree = RStarTree::bulk_load(blocks.clone(), DEFAULT_PAGE_SIZE);

    // Each van's ping stream (first point = where it starts).
    let routes: [&[Point]; 3] = [
        &[
            Point::new(60.0, 60.0),
            Point::new(420.0, 90.0),
            Point::new(640.0, 230.0),
            Point::new(700.0, 520.0),
            Point::new(540.0, 700.0),
        ],
        &[
            Point::new(950.0, 80.0),
            Point::new(760.0, 240.0),
            Point::new(620.0, 430.0),
            Point::new(430.0, 560.0),
            Point::new(250.0, 700.0),
        ],
        &[
            Point::new(80.0, 900.0),
            Point::new(300.0, 820.0),
            Point::new(520.0, 740.0),
            Point::new(760.0, 680.0),
            Point::new(900.0, 480.0),
        ],
    ];

    let dispatch_depot = depots[0].pos;
    std::thread::scope(|scope| {
        for (van, pings) in routes.iter().enumerate() {
            let (depot_tree, block_tree) = (&depot_tree, &block_tree);
            scope.spawn(move || {
                // one service per van thread over the shared trees: the
                // session streams legs, the Route queries run on the
                // service's warm engine for the moving-target ETA line
                let service = ConnService::new(Scene::borrowing(depot_tree, block_tree));
                let pin = service.pin();
                let mut session = pin.open_session(pings[0], *service.config());
                let route = Trajectory::new(pings.to_vec());
                let depot = dispatch_depot;
                let mut eta_loads = 0;
                for (i, &ping) in pings[1..].iter().enumerate() {
                    let leg = session.push_leg(ping).expect("distinct finite pings");
                    let leg = leg.as_conn().expect("k = 1 leg");
                    let eta = service
                        .execute(&Query::route(depot, ping).build().expect("finite route"))
                        .expect("route query");
                    eta_loads += eta.stats.noe;
                    let eta_dist = eta.answer.distance().expect("route answer");
                    let km = route.leg_offset(i);
                    for (nn, iv) in leg.segments() {
                        let who =
                            nn.map_or("unreachable".to_string(), |p| format!("depot {}", p.id));
                        println!(
                            "van {van}: km {:>6.1}–{:>6.1} → {who}   (ETA line from depot 0: {:.0})",
                            km + iv.lo,
                            km + iv.hi,
                            eta_dist
                        );
                    }
                }
                let (answer, stats) = session.finish().expect("at least one leg");
                let plan = answer.as_trajectory().expect("k = 1 trajectory");
                plan.check_cover().expect("route fully covered");
                println!(
                    "van {van}: {} legs, {:.0} total length, {} tuples | engine reuses {} | \
                     obstacle loads {} | ETA obstacle loads {}",
                    plan.trajectory().num_legs(),
                    plan.trajectory().len(),
                    plan.segments().len(),
                    stats.reuse.graph_reuses,
                    stats.noe,
                    eta_loads,
                );
            });
        }
    });
}
