//! The paper's Figure 1 scenario: a driver on highway I-95 asks for the
//! nearest gas station continuously along a stretch of road — once ignoring
//! obstacles (classic CNN) and once respecting them (CONN).
//!
//! The example shows the two headline phenomena of Figure 1(b):
//! * split points move when obstacles are considered, and
//! * the *answer object itself* can change (the Euclidean NN of the start
//!   point is not its obstructed NN).
//!
//! ```text
//! cargo run --release --example highway_gas_stations
//! ```

use conn::prelude::*;

fn main() {
    // Six gas stations, echoing the paper's {a, b, c, d, f, g}.
    let stations = vec![
        DataPoint::new(0, Point::new(60.0, 155.0)),  // a
        DataPoint::new(1, Point::new(340.0, 150.0)), // b
        DataPoint::new(2, Point::new(860.0, 170.0)), // c
        DataPoint::new(3, Point::new(120.0, 95.0)),  // d — Euclidean NN of S
        DataPoint::new(4, Point::new(540.0, 260.0)), // f
        DataPoint::new(5, Point::new(620.0, 120.0)), // g
    ];
    // Four rectangular obstacles; o3 walls station d off from the road start.
    let obstacles = vec![
        Rect::new(40.0, 40.0, 200.0, 80.0),    // o3: between S and d
        Rect::new(280.0, 60.0, 420.0, 100.0),  // o1
        Rect::new(500.0, 150.0, 580.0, 210.0), // o4: between f/g area
        Rect::new(700.0, 40.0, 800.0, 120.0),  // o2
    ];
    let highway = Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));

    let along_highway = Query::conn(highway).build().expect("valid highway");

    // CNN: same machinery, empty obstacle set → Euclidean continuous NN.
    let open_road = ConnService::new(Scene::new(stations.clone(), vec![]));
    let cnn = open_road.execute(&along_highway).expect("CNN query");
    let cnn = cnn.answer.as_conn().expect("conn answer");
    // CONN: obstacles respected.
    let service = ConnService::new(Scene::new(stations.clone(), obstacles));
    let response = service.execute(&along_highway).expect("CONN query");
    let (conn, stats) = (
        response.answer.as_conn().expect("conn answer"),
        response.stats,
    );

    println!("CNN  (Euclidean, obstacles ignored):");
    print_segments(cnn);
    println!("CONN (obstructed):");
    print_segments(conn);

    // Phenomenon 1: the split points differ.
    println!("CNN  split points: {:.1?}", cnn.split_points());
    println!("CONN split points: {:.1?}", conn.split_points());

    // Phenomenon 2: the answer at S changes.
    let (cnn_s, cnn_d) = cnn.nn_at(0.0).expect("CNN answer at S");
    let (conn_s, conn_d) = conn.nn_at(0.0).expect("CONN answer at S");
    println!(
        "\nat S: Euclidean NN is station {} ({cnn_d:.1} away), \
         but the obstructed NN is station {} ({conn_d:.1} along the shortest path)",
        cnn_s.id, conn_s.id
    );
    assert_ne!(
        cnn_s.id, conn_s.id,
        "obstacle o3 must flip the winner at S — example geometry broken"
    );

    // And the obstructed path to the walled-off station is genuinely longer:
    let detour = Query::odist(stations[3].pos, highway.at(0.0))
        .build()
        .expect("valid endpoints");
    let d3 = service
        .execute(&detour)
        .expect("odist query")
        .answer
        .distance()
        .expect("odist answer");
    println!(
        "station 3's euclidean distance to S is {:.1}, its obstructed distance {:.1}",
        stations[3].pos.dist(highway.at(0.0)),
        d3
    );

    println!(
        "\nCONN query: {:.1} ms CPU, {} page faults, NPE {}, NOE {}",
        stats.cpu.as_secs_f64() * 1e3,
        stats.faults(),
        stats.npe,
        stats.noe
    );
}

fn print_segments(result: &CoknnResult) {
    for (p, iv) in result.segments() {
        match p {
            Some(p) => println!("  ⟨station {}, [{:.1}, {:.1}]⟩", p.id, iv.lo, iv.hi),
            None => println!("  ⟨unreachable, [{:.1}, {:.1}]⟩", iv.lo, iv.hi),
        }
    }
}
