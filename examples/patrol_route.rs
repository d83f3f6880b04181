//! Trajectory CONN (the paper's §6 future-work extension): a patrol route
//! made of several consecutive legs, answered in one call.
//!
//! A security robot patrols a warehouse perimeter; shelving racks are
//! obstacles. For every point of the multi-leg route we want the nearest
//! charging dock by actual travel distance.
//!
//! ```text
//! cargo run --release --example patrol_route
//! ```

use conn::prelude::*;

fn main() {
    // Charging docks along the walls.
    let docks = vec![
        DataPoint::new(0, Point::new(50.0, 50.0)),
        DataPoint::new(1, Point::new(950.0, 80.0)),
        DataPoint::new(2, Point::new(900.0, 920.0)),
        DataPoint::new(3, Point::new(80.0, 880.0)),
        DataPoint::new(4, Point::new(500.0, 480.0)), // island dock
    ];
    // Shelving racks: long thin obstacles in two aislesets.
    let mut racks = Vec::new();
    for i in 0..4 {
        let y = 200.0 + i as f64 * 160.0;
        racks.push(Rect::new(150.0, y, 450.0, y + 40.0));
        racks.push(Rect::new(560.0, y, 860.0, y + 40.0));
    }

    // The patrol route: a rectangle-ish loop through the aisles.
    let route = Trajectory::new(vec![
        Point::new(100.0, 100.0),
        Point::new(900.0, 100.0),
        Point::new(900.0, 900.0),
        Point::new(100.0, 900.0),
        Point::new(100.0, 120.0),
    ]);

    let service = ConnService::new(Scene::new(docks.clone(), racks.clone()));
    let patrol = Query::trajectory(route.clone(), 1)
        .build()
        .expect("valid route");
    let response = service.execute(&patrol).expect("patrol plan");
    let (plan, stats) = (
        response.answer.as_trajectory().expect("trajectory answer"),
        response.stats,
    );
    plan.check_cover().expect("route fully covered");

    println!(
        "patrol route: {} legs, {:.0} m total, {} racks, {} docks",
        route.num_legs(),
        route.len(),
        racks.len(),
        docks.len()
    );
    println!("nearest dock by travel distance along the route:");
    for (dock, iv) in plan.segments() {
        match dock {
            Some(d) => println!("  route-km [{:7.1} – {:7.1}] → dock {}", iv.lo, iv.hi, d.id),
            None => println!("  route-km [{:7.1} – {:7.1}] → unreachable", iv.lo, iv.hi),
        }
    }
    println!("{} handovers along the loop", plan.split_points().len());

    // The plan carries distances; a direct shortest-path query cross-checks
    // one of them.
    let probe = route.len() * 0.37;
    let (dock, d) = plan.nn_at(probe).expect("answer at probe");
    let walk = Query::odist(dock.pos, route.at(probe))
        .build()
        .expect("valid endpoints");
    let direct = service
        .execute(&walk)
        .expect("odist query")
        .answer
        .distance()
        .expect("odist answer");
    assert!(
        (d - direct).abs() <= 1e-6,
        "plan says {d}, a direct odist says {direct}"
    );
    println!(
        "\nat route position {probe:.0}: dock {} is {d:.1} m away around the racks",
        dock.id
    );

    println!(
        "query cost: {:.1} ms CPU, {} page faults, NPE {} (summed over legs)",
        stats.cpu.as_secs_f64() * 1e3,
        stats.faults(),
        stats.npe
    );
}
