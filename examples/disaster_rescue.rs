//! The paper's motivating rescue scenario (§1): robots located survivors
//! under rubble; emergency crews advance along a cleared corridor and need,
//! at every position, the `k` nearest survivors by *actual walking
//! distance* around the debris — a COkNN query.
//!
//! ```text
//! cargo run --release --example disaster_rescue
//! ```

use conn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2009);

    // Debris field: scattered rubble piles (disjoint rectangles).
    let mut rubble: Vec<Rect> = Vec::new();
    while rubble.len() < 60 {
        let x = rng.gen_range(0.0..1900.0);
        let y = rng.gen_range(0.0..900.0);
        let w = rng.gen_range(30.0..140.0);
        let h = rng.gen_range(20.0..80.0);
        let r = Rect::new(x, y, x + w, y + h);
        if !rubble.iter().any(|o| o.intersects(&r)) {
            rubble.push(r);
        }
    }

    // Survivors: on or beside the rubble, never inside it.
    let mut survivors: Vec<DataPoint> = Vec::new();
    while survivors.len() < 40 {
        let p = Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..1000.0));
        if !rubble.iter().any(|r| r.strictly_contains(p)) {
            survivors.push(DataPoint::new(survivors.len() as u32, p));
        }
    }

    // The cleared corridor the crew advances along.
    let corridor = {
        let mut seg;
        loop {
            let a = Point::new(rng.gen_range(100.0..400.0), rng.gen_range(300.0..700.0));
            let b = Point::new(a.x + 1200.0, a.y + rng.gen_range(-150.0..150.0));
            seg = Segment::new(a, b);
            if !rubble.iter().any(|r| r.blocks(&seg)) {
                break;
            }
        }
        seg
    };

    let service = ConnService::new(Scene::new(survivors.clone(), rubble.clone()));

    let k = 3;
    let query = Query::coknn(corridor, k).build().expect("valid corridor");
    let response = service.execute(&query).expect("rescue plan");
    let (plan, stats) = (
        response.answer.as_coknn().expect("coknn answer"),
        response.stats,
    );
    plan.check_cover().expect("corridor fully covered");

    println!(
        "rescue plan: {} survivors, {} rubble piles, corridor of {:.0} m, k = {k}",
        survivors.len(),
        rubble.len(),
        corridor.len()
    );
    // the stretches of constant top-k id set: adjacent entries with equal
    // sets merged
    let mut stretches: Vec<(Vec<u32>, Interval)> = Vec::new();
    for e in plan.entries() {
        let mut ids: Vec<u32> = e.members.iter().map(|m| m.point.id).collect();
        ids.sort_unstable();
        match stretches.last_mut() {
            Some((prev, iv)) if *prev == ids => iv.hi = e.interval.hi,
            _ => stretches.push((ids, e.interval)),
        }
    }
    println!(
        "the corridor decomposes into {} stretches with a constant top-{k} set:",
        stretches.len()
    );
    for (ids, iv) in stretches.iter().take(12) {
        println!("  [{:6.1} – {:6.1}] → survivors {:?}", iv.lo, iv.hi, ids);
    }
    if stretches.len() > 12 {
        println!("  … ({} more stretches)", stretches.len() - 12);
    }

    // A concrete dispatch decision mid-corridor:
    let mid = corridor.len() / 2.0;
    println!("\nat the corridor midpoint, dispatch order (walking distance):");
    for (s, d) in plan.knn_at(mid) {
        let straight = s.pos.dist(corridor.at(mid));
        println!(
            "  survivor {:2} — {d:7.1} m around debris (straight line {straight:7.1} m, +{:.0}%)",
            s.id,
            (d / straight - 1.0) * 100.0
        );
    }

    println!(
        "\nquery cost: {:.1} ms CPU, {} page faults, NPE {}, NOE {}, |SVG| {}",
        stats.cpu.as_secs_f64() * 1e3,
        stats.faults(),
        stats.npe,
        stats.noe,
        stats.svg_nodes
    );
}
