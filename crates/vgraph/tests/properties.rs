//! Property tests for the visibility substrate: path validity, metric
//! lower bounds, symmetry, and agreement between the lazy local graph and a
//! brute-force reference.

use conn_geom::{Point, Rect, Segment, EPS};
use conn_vgraph::{visible_region, DijkstraEngine, NodeId, NodeKind, SweepMode, VisGraph};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Disjoint rectangles (rejection inside the strategy output is awkward, so
/// we drop overlapping ones while building the graph).
fn rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((pt(), 5.0..80.0f64, 5.0..80.0f64), 0..12).prop_map(|specs| {
        let mut out: Vec<Rect> = Vec::new();
        for (p, w, h) in specs {
            let r = Rect::new(p.x, p.y, p.x + w, p.y + h);
            if !out.iter().any(|o| o.intersects(&r)) {
                out.push(r);
            }
        }
        out
    })
}

/// Obstacle sets exercising the plane-sweep's degenerate paths: a uniform
/// scatter, a dense cluster (many shared-cell candidates), an axis-aligned
/// row whose corners are collinear from any pivot on the row (shared-angle
/// events), and zero-area rectangles (four coincident corner nodes that
/// can never block). Overlaps are allowed — visibility semantics do not
/// require disjointness.
fn sweep_rects() -> impl Strategy<Value = Vec<Rect>> {
    (
        prop::collection::vec((pt(), 0.0..70.0f64, 0.0..70.0f64), 1..8),
        prop::collection::vec(
            (0.0..150.0f64, 0.0..150.0f64, 1.0..30.0f64, 1.0..30.0f64),
            0..5,
        ),
        (pt(), 2..5usize),
        prop::collection::vec(pt(), 0..3),
    )
        .prop_map(|(uniform, cluster, (row_at, row_n), points)| {
            let mut out = Vec::new();
            for (p, w, h) in uniform {
                out.push(Rect::new(p.x, p.y, p.x + w, p.y + h));
            }
            for (dx, dy, w, h) in cluster {
                let (ax, ay) = (400.0 + dx, 400.0 + dy);
                out.push(Rect::new(ax, ay, ax + w, ay + h));
            }
            for i in 0..row_n {
                let ax = (row_at.x + 60.0 * i as f64) % 950.0;
                out.push(Rect::new(ax, row_at.y, ax + 25.0, row_at.y + 25.0));
            }
            for p in points {
                out.push(Rect::new(p.x, p.y, p.x, p.y)); // zero-area
            }
            out
        })
}

/// A scene built around the plane-sweep's front-to-back occlusion cull,
/// as seen from `pivot`: a wide wall up and to the right of it, and behind
/// that wall — farther than the wall's far corner, inside the cone it
/// subtends — rectangles nested in, overlapping, or collapsed to zero width
/// against the first of them. The sweep must drop those (**rect culled**)
/// and settle each of their corners with one probe against the wall
/// (**candidate certified**). The wall's left edge stands `1e-5` right of
/// the pivot, less than the sweep's angular widening at that range, so the
/// depth-buffer bin just clockwise of straight up counts as closed while a
/// sliver of it looks past the wall: `beyond`, `1e-6` right of the pivot
/// and far above it, sits in that sliver, its hint is refuted, and only the
/// fallback to every rectangle finds it visible (**hint refuted**). With
/// `shared_corner`, two more rectangles touch corner to corner exactly at
/// the pivot, which makes the pivot an obstacle vertex of both. Decoys
/// below the pivot keep the sweep's active set busy.
#[derive(Debug, Clone)]
struct OccludedScene {
    pivot: Point,
    beyond: Point,
    rects: Vec<Rect>,
    /// How many of `rects` lie wholly behind the wall.
    hidden: usize,
}

fn occluded_scene() -> impl Strategy<Value = OccludedScene> {
    (
        (300.0..700.0f64, 300.0..700.0f64),
        (20.0..60.0f64, 5.0..40.0f64, 100.0..300.0f64),
        prop::collection::vec((0..3usize, 0.0..0.3f64, 0.05..0.5f64, 1.0..40.0f64), 1..6),
        prop::collection::vec(
            (-250.0..250.0f64, 50.0..250.0f64, 1.0..60.0f64, 1.0..60.0f64),
            0..4,
        ),
        prop::bool::weighted(0.5),
    )
        .prop_map(
            |((px, py), (gap, thick, width), behind, decoys, shared_corner)| {
                let wall = Rect::new(px + 1e-5, py + gap, px + width, py + gap + thick);
                let mut rects = vec![wall];
                // past the wall's far corner, so every bin it closes is closed
                // nearer than anything placed here
                let base = (width * width + (gap + thick) * (gap + thick)).sqrt() + 10.0;
                let mut prev =
                    Rect::new(px + 0.1 * base, py + base, px + 0.4 * base, py + 1.5 * base);
                rects.push(prev);
                for (shape, dx, scale, lift) in behind {
                    let (w, h) = (prev.width() * scale, prev.height() * scale);
                    let r = match shape {
                        // nested in the previous one
                        0 => Rect::new(
                            prev.min_x + dx * w,
                            prev.min_y + dx * h,
                            prev.min_x + dx * w + w,
                            prev.min_y + dx * h + h,
                        ),
                        // overlapping it from above
                        1 => Rect::new(
                            prev.min_x,
                            prev.max_y - h / 2.0,
                            prev.max_x,
                            prev.max_y + lift,
                        ),
                        // zero width, standing on it
                        _ => Rect::new(
                            prev.min_x + w,
                            prev.max_y,
                            prev.min_x + w,
                            prev.max_y + lift,
                        ),
                    };
                    if r.width() > 0.0 {
                        prev = r;
                    }
                    rects.push(r);
                }
                let hidden = rects.len() - 1;
                if shared_corner {
                    rects.push(Rect::new(px, py - 30.0, px + 30.0, py));
                    rects.push(Rect::new(px - 30.0, py, px, py + 30.0));
                }
                for (dx, down, w, h) in decoys {
                    rects.push(Rect::new(
                        px + dx,
                        py - 40.0 - down - h,
                        px + dx + w,
                        py - 40.0 - down,
                    ));
                }
                OccludedScene {
                    pivot: Point::new(px, py),
                    beyond: Point::new(px + 1e-6, py + 1000.0),
                    rects,
                    hidden,
                }
            },
        )
}

/// A point in free space (not inside any obstacle).
fn free_point(rs: &[Rect], seed: Point) -> Point {
    let mut p = seed;
    let mut tries = 0;
    while rs.iter().any(|r| r.strictly_contains(p)) && tries < 100 {
        p = Point::new((p.x + 131.7) % 1000.0, (p.y + 311.3) % 1000.0);
        tries += 1;
    }
    p
}

/// May a shortest path bend at corner `k` of `r` (in `Rect::corners`
/// order) along the segment toward `other`? Written from the rectangle's
/// centre and never from the graph's corner lane: seen from the corner,
/// the rectangle fills the quadrant toward its centre, and a path can use
/// neither that quadrant nor the opposite one — except along a wall, which
/// like `Rect::blocks` takes in every direction within `EPS` of the wall's
/// line. A rectangle with no extent on an axis has its centre level with
/// the corner there; the corner's place in the `corners` order then says
/// which side its edge collapsed from.
fn tangent_at_corner(r: &Rect, k: usize, other: Point) -> bool {
    let c = r.corners()[k];
    let (dx, dy) = (other.x - c.x, other.y - c.y);
    if dx.abs() <= EPS || dy.abs() <= EPS {
        return true;
    }
    let side = |offset: f64, low_corner: bool| {
        if offset != 0.0 {
            offset
        } else if low_corner {
            1.0
        } else {
            -1.0
        }
    };
    let toward_x = dx * side(r.center().x - c.x, k == 0 || k == 3);
    let toward_y = dy * side(r.center().y - c.y, k < 2);
    toward_x * toward_y <= 0.0
}

/// [`tangent_at_corner`] for node `v` of a graph holding `points` point
/// nodes followed by the four corners of each rectangle of `rs`; a point
/// node is tangent in every direction.
fn tangent_at(rs: &[Rect], points: usize, v: usize, other: Point) -> bool {
    v < points || tangent_at_corner(&rs[(v - points) / 4], (v - points) % 4, other)
}

/// Brute-force shortest paths from `points[0]`: the O(n²) visibility graph
/// over `points` and every rectangle corner, scalar `Rect::blocks`, array
/// Dijkstra. Returns the label of every node, points first, then the four
/// corners of each rectangle in `Rect::corners` order — the node order of
/// a `VisGraph` built the same way. Shares no code with `VisGraph`.
///
/// With `bitangent` unset the graph is complete: every label is the
/// obstructed distance. With it set, an edge must be tangent at both ends
/// and only the source and the corners are expanded — a corner's label is
/// then its shortest tangent arrival over paths bending at corners only,
/// which is what `DijkstraEngine` reports for one.
fn brute_labels(rs: &[Rect], points: &[Point], bitangent: bool) -> Vec<f64> {
    let mut nodes = points.to_vec();
    for r in rs {
        nodes.extend(r.corners());
    }
    let n = nodes.len();
    let blocked = |u: Point, v: Point| -> bool { rs.iter().any(|r| r.blocks(&Segment::new(u, v))) };
    let edge = |u: usize, v: usize| -> bool {
        let admitted = !bitangent
            || ((u == 0 || u >= points.len())
                && tangent_at(rs, points.len(), u, nodes[v])
                && tangent_at(rs, points.len(), v, nodes[u]));
        admitted && !blocked(nodes[u], nodes[v])
    };
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[0] = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&i| !done[i])
            .min_by(|&i, &j| dist[i].total_cmp(&dist[j]));
        let Some(u) = u else { break };
        if dist[u].is_infinite() {
            break;
        }
        done[u] = true;
        for v in 0..n {
            if !done[v] && edge(u, v) {
                let nd = dist[u] + nodes[u].dist(nodes[v]);
                if nd < dist[v] {
                    dist[v] = nd;
                }
            }
        }
    }
    dist
}

/// Node `u`'s whole row, appended to `out`.
fn row_into(g: &mut VisGraph, u: NodeId, out: &mut Vec<(u32, f64)>) {
    g.neighbors_into_ranged(u, out, |_, _| true, f64::INFINITY);
}

/// Brute-force shortest path length from `a` to `b`.
fn brute_odist(rs: &[Rect], a: Point, b: Point) -> f64 {
    brute_labels(rs, &[a, b], false)[1]
}

/// `rects()` extended with everything the free-space model puts on a
/// boundary: each extra rectangle is derived from the one before it —
/// touching it along an edge with its corner on that edge, sharing a whole
/// edge (coincident corners), overlapping it, nested inside it, touching
/// it corner to corner — or has zero width.
fn tangled_rects() -> impl Strategy<Value = Vec<Rect>> {
    (
        rects(),
        prop::collection::vec((0..6usize, pt(), 5.0..60.0f64, 5.0..60.0f64), 1..8),
    )
        .prop_map(|(mut out, extras)| {
            for (shape, at, w, h) in extras {
                let prev = out
                    .last()
                    .copied()
                    .unwrap_or(Rect::new(at.x, at.y, at.x + w, at.y + h));
                let (pw, ph) = (prev.width(), prev.height());
                out.push(match shape {
                    0 => Rect::new(
                        prev.max_x,
                        prev.min_y + ph / 3.0,
                        prev.max_x + w,
                        prev.min_y + ph / 3.0 + h,
                    ),
                    1 => Rect::new(prev.max_x, prev.min_y, prev.max_x + w, prev.max_y),
                    2 => Rect::new(
                        prev.min_x + pw / 2.0,
                        prev.min_y + ph / 2.0,
                        prev.min_x + pw / 2.0 + w,
                        prev.min_y + ph / 2.0 + h,
                    ),
                    3 => Rect::new(
                        prev.min_x + pw / 4.0,
                        prev.min_y + ph / 4.0,
                        prev.max_x - pw / 4.0,
                        prev.max_y - ph / 4.0,
                    ),
                    4 => Rect::new(prev.max_x, prev.max_y, prev.max_x + w, prev.max_y + h),
                    _ => Rect::new(at.x, at.y, at.x, at.y + h),
                });
            }
            out
        })
}

/// A point of the scene picked by `pick`: a corner of some rectangle, the
/// midpoint of one of its edges, or `seed` moved into free space.
fn boundary_point(rs: &[Rect], seed: Point, pick: usize) -> Point {
    if rs.is_empty() {
        return seed;
    }
    let r = rs[pick / 3 % rs.len()];
    match pick % 3 {
        0 => r.corners()[pick % 4],
        1 => r.corners()[pick % 4].lerp(r.corners()[(pick + 1) % 4], 0.5),
        _ => free_point(rs, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lazy_graph_matches_brute_force(rs in rects(), a in pt(), b in pt()) {
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        let nb = g.add_point(b, NodeKind::Endpoint);
        for r in &rs {
            g.add_obstacle(*r);
        }
        let mut d = DijkstraEngine::new(&g, na);
        let got = d.run_until_settled(&mut g, nb);
        let want = brute_odist(&rs, a, b);
        if want.is_finite() {
            prop_assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        } else {
            prop_assert!(got.is_infinite());
        }
    }

    #[test]
    fn odist_dominates_euclid_and_is_symmetric(rs in rects(), a in pt(), b in pt()) {
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        let nb = g.add_point(b, NodeKind::Endpoint);
        for r in &rs {
            g.add_obstacle(*r);
        }
        let mut d1 = DijkstraEngine::new(&g, na);
        let fwd = d1.run_until_settled(&mut g, nb);
        let mut d2 = DijkstraEngine::new(&g, nb);
        let bwd = d2.run_until_settled(&mut g, na);
        if fwd.is_finite() {
            prop_assert!(fwd + 1e-9 >= a.dist(b));
            prop_assert!((fwd - bwd).abs() < 1e-6);
        } else {
            prop_assert!(bwd.is_infinite());
        }
    }

    #[test]
    fn shortest_path_edges_are_unblocked(rs in rects(), a in pt(), b in pt()) {
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        let nb = g.add_point(b, NodeKind::Endpoint);
        for r in &rs {
            g.add_obstacle(*r);
        }
        let mut d = DijkstraEngine::new(&g, na);
        let dist = d.run_until_settled(&mut g, nb);
        if dist.is_finite() {
            let path = d.path_to(nb);
            prop_assert!(path.len() >= 2);
            let mut total = 0.0;
            for w in path.windows(2) {
                let (u, v) = (g.node_pos(w[0]), g.node_pos(w[1]));
                prop_assert!(!rs.iter().any(|r| r.blocks(&Segment::new(u, v))),
                    "path edge {u}→{v} crosses an obstacle");
                total += u.dist(v);
            }
            prop_assert!((total - dist).abs() < 1e-6);
        }
    }

    #[test]
    fn visible_region_agrees_with_point_tests(rs in rects(), vp in pt(), qa in pt(), qb in pt()) {
        let vp = free_point(&rs, vp);
        let q = Segment::new(qa, qb);
        if q.is_degenerate() {
            return Ok(());
        }
        let vr = visible_region(vp, &q, &rs);
        for i in 0..=60 {
            let t = q.len() * (i as f64) / 60.0;
            let sight = Segment::new(vp, q.at(t));
            let blocked = rs.iter().any(|r| r.blocks(&sight));
            let near_boundary = vr.intervals().iter().any(|iv| {
                (t - iv.lo).abs() < 1e-3 || (t - iv.hi).abs() < 1e-3
            });
            if !near_boundary {
                prop_assert_eq!(vr.contains(t), !blocked, "t = {}", t);
            }
        }
    }

    #[test]
    fn csr_adjacency_matches_per_node_reference(rs in rects(), a in pt(), b in pt()) {
        // The CSR arena (contiguous target/weight lanes + per-node ranges,
        // batched grid sight tests) must present exactly the bitangent
        // rows: for every node `u`, every other stable node `v` it can see
        // along a segment tangent at `u` **and** at `v`, weighted by
        // Euclidean distance. The reference below recomputes that per node
        // with scalar `Rect::blocks` and a tangent test written out from
        // the rectangle list, so the comparison crosses the batched vs
        // scalar kernel boundary and never asks the graph which corner is
        // which.
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        g.add_point(b, NodeKind::Endpoint);
        let mut scratch = Vec::new();
        for (i, r) in rs.iter().enumerate() {
            g.add_obstacle(*r);
            if i % 2 == 0 {
                // interleave reads so caches go version-stale and exercise
                // the repair path, not just rebuilds
                row_into(&mut g, na, &mut scratch);
            }
        }
        let n = g.num_nodes();
        // nodes 0 and 1 are the endpoints; node 2 + 4i + k is corner k of
        // rs[i]
        for u in 0..n {
            let upos = g.node_pos(NodeId(u as u32));
            let mut want: Vec<(u32, f64)> = (0..n)
                .filter(|&v| v != u)
                .filter_map(|v| {
                    let vpos = g.node_pos(NodeId(v as u32));
                    let seg = Segment::new(upos, vpos);
                    (tangent_at(&rs, 2, u, vpos)
                        && tangent_at(&rs, 2, v, upos)
                        && !rs.iter().any(|r| r.blocks(&seg)))
                    .then(|| (v as u32, upos.dist(vpos)))
                })
                .collect();
            let mut got = Vec::new();
            row_into(&mut g, NodeId(u as u32), &mut got);
            got.sort_by_key(|e| e.0);
            want.sort_by_key(|e| e.0);
            prop_assert_eq!(&got, &want, "adjacency of node {} diverged", u);
        }
    }

    #[test]
    fn taut_search_labels_match_brute_force(
        rs in tangled_rects(),
        seeds in prop::collection::vec((pt(), 0..60usize), 1..6),
        src_pick in 0..60usize,
    ) {
        // The justification for keeping only bitangent edges and never
        // expanding a free point: one `run_all` from a point source labels
        // every **point** node exactly as the complete visibility graph
        // does, and every **corner** with its shortest tangent arrival —
        // the brute force over bitangent edges, never below the complete
        // one — on scenes full of touching, overlapping, nested and
        // zero-width rectangles, with the source and the targets on
        // obstacle corners and edges as well as in free space.
        let mut points = vec![boundary_point(&rs, seeds[0].0, src_pick)];
        points.extend(seeds.iter().map(|&(seed, pick)| boundary_point(&rs, seed, pick)));
        let complete = brute_labels(&rs, &points, false);
        let arrivals = brute_labels(&rs, &points, true);

        let mut g = VisGraph::new(60.0);
        let ids: Vec<NodeId> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                // targets alternate between the base tier and the overlay
                let kind = if i % 2 == 0 { NodeKind::Endpoint } else { NodeKind::DataPoint };
                g.add_point(p, kind)
            })
            .collect();
        for r in &rs {
            g.add_obstacle(*r);
        }
        let mut d = DijkstraEngine::new(&g, ids[0]);
        d.run_all(&mut g);
        prop_assert_eq!(g.capacity(), complete.len());
        for v in 0..complete.len() {
            let at = g.node_pos(NodeId(v as u32));
            prop_assert!(
                arrivals[v] + 1e-6 >= complete[v],
                "node {} at {}: tangent arrival {} below the distance {}",
                v, at, arrivals[v], complete[v]
            );
            // a corner answers to the bitangent reference only, a point to both
            let wants = if v < points.len() { vec![complete[v], arrivals[v]] } else { vec![arrivals[v]] };
            for want in wants {
                match d.settled_dist(NodeId(v as u32)) {
                    Some(got) => prop_assert!(
                        (got - want).abs() < 1e-6,
                        "node {} at {}: got {}, want {}", v, at, got, want
                    ),
                    None => prop_assert!(want.is_infinite(), "node {} unreached, want {}", v, want),
                }
            }
        }
    }

    #[test]
    fn sweep_adjacency_bit_identical_across_build_paths(
        rs in sweep_rects(),
        a in pt(),
        b in pt(),
        radii in prop::collection::vec(0.0..450.0f64, 2..6),
    ) {
        // Two graphs replay the identical operation sequence, one forcing
        // the rotational plane-sweep and one forcing the pre-sweep
        // per-candidate grid walks. Interleaved ranged reads at varying
        // radii drive both maintenance paths — the first read of a node is
        // a rebuild, reads after obstacle adds repair, and a radius beyond
        // the row's rebuilds it again. The CSR edge lists must be
        // **bit-identical** (same targets, same order, same f64 weights),
        // and a scalar `Rect::blocks` reference pins membership inside
        // each requested window.
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut gs = VisGraph::new(60.0);
        let mut gw = VisGraph::new(60.0);
        gs.set_sweep_mode(SweepMode::Always);
        gw.set_sweep_mode(SweepMode::Never);
        let nas = gs.add_point(a, NodeKind::Endpoint);
        let naw = gw.add_point(a, NodeKind::Endpoint);
        prop_assert_eq!(nas, naw);
        gs.add_point(b, NodeKind::Endpoint);
        gw.add_point(b, NodeKind::Endpoint);
        let (mut outs, mut outw) = (Vec::new(), Vec::new());
        for (i, r) in rs.iter().enumerate() {
            gs.add_obstacle(*r);
            gw.add_obstacle(*r);
            if i % 2 == 0 {
                let radius = radii[(i / 2) % radii.len()];
                outs.clear();
                outw.clear();
                gs.neighbors_into_ranged(nas, &mut outs, |_, _| true, radius);
                gw.neighbors_into_ranged(naw, &mut outw, |_, _| true, radius);
                prop_assert_eq!(&outs, &outw, "sweep vs walk diverged at step {}", i);
                // scalar reference: inside the requested window, the edge
                // list holds exactly the visible stable nodes a path from
                // `a` can bend at (nodes 0 and 1 are the endpoints)
                for v in 0..gs.capacity() {
                    let vid = NodeId(v as u32);
                    if v == nas.index() || !gs.is_alive(vid) {
                        continue;
                    }
                    let vpos = gs.node_pos(vid);
                    let cheb = (vpos.x - a.x).abs().max((vpos.y - a.y).abs());
                    if cheb > radius {
                        continue;
                    }
                    let seg = Segment::new(a, vpos);
                    let want = tangent_at(&rs, 2, v, a)
                        && !rs[..=i].iter().any(|r| r.blocks(&seg));
                    let got = outs.iter().any(|e| e.0 == v as u32);
                    prop_assert_eq!(got, want, "node {} in window {} at step {}", v, radius, i);
                }
            }
        }
        // final pass: every node (endpoints and obstacle corners alike)
        // agrees bit-identically between the two modes
        for u in 0..gs.capacity() {
            let uid = NodeId(u as u32);
            if !gs.is_alive(uid) {
                continue;
            }
            outs.clear();
            outw.clear();
            gs.neighbors_into_ranged(uid, &mut outs, |_, _| true, 300.0);
            gw.neighbors_into_ranged(uid, &mut outw, |_, _| true, 300.0);
            prop_assert_eq!(&outs, &outw, "final adjacency of node {} diverged", u);
        }
    }

    #[test]
    fn occlusion_cull_routes_stay_bit_identical(scene in occluded_scene()) {
        // The sweep's occlusion cull is a hint, never a verdict: on scenes
        // made to send rectangles and candidates down each of its three
        // routes (see `OccludedScene`), every row is bit-identical between
        // the forced sweep and the forced grid walks, the pivot's row is
        // exactly the scalar reference, and the sweep really did skip the
        // events the hidden rectangles and their corners would have been.
        let OccludedScene { pivot, beyond, rects: rs, hidden } = scene;
        let mut gs = VisGraph::new(60.0);
        let mut gw = VisGraph::new(60.0);
        gs.set_sweep_mode(SweepMode::Always);
        gw.set_sweep_mode(SweepMode::Never);
        for g in [&mut gs, &mut gw] {
            g.add_point(pivot, NodeKind::Endpoint);
            g.add_point(beyond, NodeKind::Endpoint);
            for r in &rs {
                g.add_obstacle(*r);
            }
        }
        let n = gs.capacity();
        let events = gs.sweep_events();
        let (mut outs, mut outw) = (Vec::new(), Vec::new());
        row_into(&mut gs, NodeId(0), &mut outs);
        // a start and an end per rectangle in front, one event per node
        // that is no corner of a hidden rectangle — at most
        let in_front = rs.len() - hidden;
        prop_assert!(
            gs.sweep_events() - events <= (2 * in_front + n - 1 - 4 * hidden) as u64,
            "{} events with {} of {} rectangles hidden", gs.sweep_events() - events, hidden, rs.len()
        );
        row_into(&mut gw, NodeId(0), &mut outw);
        prop_assert_eq!(&outs, &outw, "pivot row diverged");
        prop_assert!(outs.iter().any(|e| e.0 == 1), "the node past the wall's edge is visible");
        for v in 1..n {
            let vpos = gs.node_pos(NodeId(v as u32));
            let seg = Segment::new(pivot, vpos);
            let want = tangent_at(&rs, 2, v, pivot) && !rs.iter().any(|r| r.blocks(&seg));
            prop_assert_eq!(outs.iter().any(|e| e.0 == v as u32), want, "node {} in the pivot row", v);
        }
        // every other row, the obstacle vertices standing on the pivot
        // among them
        for u in 1..n {
            outs.clear();
            outw.clear();
            row_into(&mut gs, NodeId(u as u32), &mut outs);
            row_into(&mut gw, NodeId(u as u32), &mut outw);
            prop_assert_eq!(&outs, &outw, "row of node {} diverged", u);
        }
    }

    #[test]
    fn radius_requests_straddling_the_growth_margin_keep_windows_correct(
        rs in sweep_rects(),
        a in pt(),
        first in 60.0..400.0f64,
        steps in prop::collection::vec((0..3usize, prop::bool::weighted(0.5)), 1..12),
    ) {
        // A rebuild makes a row complete out to the request times the
        // graph's growth margin (1.2, and at least two grid cells), so each
        // request after the first lands just inside the radius the last
        // rebuild covered, on it, or just outside: a hit — a repair, when
        // an obstacle arrived first — or a rebuild. After every request the
        // row inside the requested window is exactly the visible stable
        // nodes a path from `a` can bend at (node 0 is `a`, the corners
        // follow).
        // Follows the private `GROWTH_MARGIN` of `graph.rs`; the unit test
        // `rebuild_radius_is_the_request_times_the_margin` pins it there.
        const GROWTH_MARGIN: f64 = 1.2;
        let a = free_point(&rs, a);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        let (mut loaded, mut radius, mut covered) = (0, first, 0.0_f64);
        let mut out = Vec::new();
        for (i, (straddle, load)) in steps.into_iter().enumerate() {
            if load && loaded < rs.len() {
                g.add_obstacle(rs[loaded]);
                loaded += 1;
            }
            if i > 0 {
                radius = covered * [0.999, 1.0, 1.001][straddle];
            }
            out.clear();
            g.neighbors_into_ranged(na, &mut out, |_, _| true, radius);
            if radius > covered {
                // the floor is `graph.rs`'s two grid cells at cell size 60,
                // pinned by the same unit test
                covered = (radius * GROWTH_MARGIN).max(120.0);
            }
            for v in 0..g.capacity() {
                let vid = NodeId(v as u32);
                if v == na.index() || !g.is_alive(vid) {
                    continue;
                }
                let vpos = g.node_pos(vid);
                let cheb = (vpos.x - a.x).abs().max((vpos.y - a.y).abs());
                if cheb > radius {
                    continue;
                }
                let seg = Segment::new(a, vpos);
                let want = tangent_at(&rs, 1, v, a)
                    && !rs[..loaded].iter().any(|r| r.blocks(&seg));
                let got = out.iter().any(|e| e.0 == v as u32);
                prop_assert_eq!(
                    got, want,
                    "request {} at step {} broke window membership for node {}",
                    radius, i, v
                );
            }
        }
    }

    #[test]
    fn adding_obstacles_never_shortens_paths(rs in rects(), a in pt(), b in pt()) {
        let a = free_point(&rs, a);
        let b = free_point(&rs, b);
        let mut g = VisGraph::new(60.0);
        let na = g.add_point(a, NodeKind::Endpoint);
        let nb = g.add_point(b, NodeKind::Endpoint);
        let mut prev = a.dist(b);
        for r in &rs {
            g.add_obstacle(*r);
            let mut d = DijkstraEngine::new(&g, na);
            let cur = d.run_until_settled(&mut g, nb);
            prop_assert!(cur + 1e-9 >= prev, "distance shrank: {prev} → {cur}");
            prev = cur;
        }
    }
}
