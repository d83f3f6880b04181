//! Renders a CONN query scene to SVG: obstacles, data points, the query
//! segment with its split points, and the per-interval answer coloring —
//! a visual check of the Figure-1-style output.
//!
//! ```text
//! cargo run --release --example render_scene [out.svg]
//! ```

use conn::prelude::*;
use std::fmt::Write as _;

const PALETTE: [&str; 8] = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628", "#f781bf", "#999999",
];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "conn_scene.svg".to_string());

    // the highway scenario from examples/highway_gas_stations.rs
    let stations = vec![
        DataPoint::new(0, Point::new(60.0, 155.0)),
        DataPoint::new(1, Point::new(340.0, 150.0)),
        DataPoint::new(2, Point::new(860.0, 170.0)),
        DataPoint::new(3, Point::new(120.0, 95.0)),
        DataPoint::new(4, Point::new(540.0, 260.0)),
        DataPoint::new(5, Point::new(620.0, 120.0)),
    ];
    let obstacles = vec![
        Rect::new(40.0, 40.0, 200.0, 80.0),
        Rect::new(280.0, 60.0, 420.0, 100.0),
        Rect::new(500.0, 150.0, 580.0, 210.0),
        Rect::new(700.0, 40.0, 800.0, 120.0),
    ];
    let q = Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 0.0));

    let service = ConnService::new(Scene::new(stations.clone(), obstacles.clone()));
    let response = service
        .execute(&Query::conn(q).build().expect("valid segment"))
        .expect("conn query");
    let result = response.answer.into_conn().expect("conn answer");

    let svg = render(&stations, &obstacles, &q, &result);
    std::fs::write(&out_path, svg).expect("write svg");
    println!("wrote {out_path}");
    for (p, iv) in result.segments() {
        println!(
            "  [{:6.1} – {:6.1}] → {}",
            iv.lo,
            iv.hi,
            p.map_or("∅".to_string(), |p| format!("station {}", p.id))
        );
    }
}

fn render(stations: &[DataPoint], obstacles: &[Rect], q: &Segment, result: &CoknnResult) -> String {
    // world box with margins; SVG y grows downward → flip
    let (w, h) = (1050.0, 340.0);
    let flip = |p: Point| -> (f64, f64) { (p.x + 25.0, h - 40.0 - p.y) };
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    );
    let _ = writeln!(s, r##"<rect width="{w}" height="{h}" fill="#fcfcfc"/>"##);

    // obstacles
    for r in obstacles {
        let (x, y) = flip(Point::new(r.min_x, r.max_y));
        let _ = writeln!(
            s,
            r##"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{:.1}" fill="#bbb" stroke="#666"/>"##,
            r.width(),
            r.height()
        );
    }

    // answer intervals along q, colored by winning station
    for (p, iv) in result.segments() {
        let color = p.map_or("#000000", |p| PALETTE[p.id as usize % PALETTE.len()]);
        let (x1, y1) = flip(q.at(iv.lo));
        let (x2, y2) = flip(q.at(iv.hi));
        let _ = writeln!(
            s,
            r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="{color}" stroke-width="6"/>"#
        );
    }
    // split points
    for t in result.split_points() {
        let (x, y) = flip(q.at(t));
        let _ = writeln!(
            s,
            r##"<circle cx="{x:.1}" cy="{y:.1}" r="5" fill="#fff" stroke="#000" stroke-width="1.5"/>"##
        );
    }

    // stations, colored like their intervals
    for p in stations {
        let color = PALETTE[p.id as usize % PALETTE.len()];
        let (x, y) = flip(p.pos);
        let _ = writeln!(
            s,
            r##"<circle cx="{x:.1}" cy="{y:.1}" r="6" fill="{color}" stroke="#222"/>"##
        );
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="13" font-family="sans-serif">{}</text>"#,
            x + 9.0,
            y + 4.0,
            p.id
        );
    }

    // endpoints
    for (label, pt) in [("S", q.a), ("E", q.b)] {
        let (x, y) = flip(pt);
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="15" font-weight="bold" font-family="sans-serif">{label}</text>"#,
            x - 5.0,
            y + 22.0
        );
    }
    s.push_str("</svg>\n");
    s
}
