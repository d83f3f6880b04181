//! Spatial tiling of a scene into overlapping shards (serving layer).
//!
//! A [`ShardSet`] cuts the scene's bounding box into an `nx × ny` grid of
//! *core* tiles and indexes each tile's neighborhood — the core expanded by
//! a `margin` on every side, the shard's **coverage** rect — in its own
//! pair of R\*-trees. Shards overlap by construction, so a query landing
//! near a tile boundary still sees everything within `margin` of it.
//!
//! ## The locality certificate
//!
//! A shard answer equals the full-scene answer whenever the query's
//! geometry, expanded by the largest reported obstructed distance `dmax`,
//! fits inside the shard's coverage rect ([`Shard::certifies`]). The
//! argument: obstructed distance dominates Euclidean distance, so every
//! candidate the full scene could prefer lies within `dmax` of the query
//! anchor — inside coverage, hence inside the shard's data tree. Any
//! shortest path of length ≤ `dmax` stays within `dmax` of its query-side
//! endpoint, so it never leaves coverage — where the shard holds *every*
//! obstacle of the full scene (obstacles are assigned by coverage
//! intersection). Shard paths are therefore valid full-scene paths and
//! vice versa, and the distances coincide.
//!
//! When the certificate fails the shard attempt is *discarded* and the
//! query re-runs against the full scene — never min-merged: a shard is an
//! obstacle *subset*, so its distances can underestimate, and taking the
//! minimum across shards would prefer exactly the underestimates. The
//! certificate-or-fallback rule is counted per query in
//! [`crate::ReuseCounters::shard_local`] /
//! [`crate::ReuseCounters::shard_merges`].

use conn_geom::Rect;
use conn_index::{RStarTree, DEFAULT_PAGE_SIZE};

use crate::error::Error;
use crate::service::Scene;
use crate::types::DataPoint;

/// Tiling parameters of a sharded service: grid dimensions and the
/// coverage margin every tile is expanded by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    nx: usize,
    ny: usize,
    margin: f64,
}

impl ShardSpec {
    /// An `nx × ny` grid with coverage `margin`. Rejects empty grids and
    /// non-finite or negative margins.
    pub fn new(nx: usize, ny: usize, margin: f64) -> Result<Self, Error> {
        if nx == 0 || ny == 0 {
            return Err(Error::invalid_query("shard grid must be at least 1x1"));
        }
        if !margin.is_finite() || margin < 0.0 {
            return Err(Error::invalid_query(
                "shard margin must be finite and non-negative",
            ));
        }
        Ok(ShardSpec { nx, ny, margin })
    }

    /// Grid width (tiles along x).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (tiles along y).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Coverage margin every tile is expanded by.
    pub fn margin(&self) -> f64 {
        self.margin
    }
}

/// One tile of a [`ShardSet`]: the core rect it is responsible for, the
/// expanded coverage rect it indexed, and the R\*-trees over the scene
/// subset that falls inside coverage.
#[derive(Debug)]
pub struct Shard {
    core: Rect,
    coverage: Rect,
    data: RStarTree<DataPoint>,
    obstacles: RStarTree<Rect>,
}

impl Shard {
    /// The tile this shard is routed queries for.
    pub fn core(&self) -> &Rect {
        &self.core
    }

    /// The expanded rect this shard actually indexed.
    pub fn coverage(&self) -> &Rect {
        &self.coverage
    }

    /// The shard's data-point tree (points whose position lies in
    /// coverage).
    pub fn data_tree(&self) -> &RStarTree<DataPoint> {
        &self.data
    }

    /// The shard's obstacle tree (obstacles intersecting coverage).
    pub fn obstacle_tree(&self) -> &RStarTree<Rect> {
        &self.obstacles
    }

    /// The locality certificate: true when `anchor` (the query geometry's
    /// bounding box) expanded by `dmax` on every side fits inside this
    /// shard's coverage — the shard then provably holds every candidate
    /// and every obstacle any ≤ `dmax` path can touch, so the shard
    /// answer *is* the full-scene answer (see the module docs).
    pub fn certifies(&self, anchor: &Rect, dmax: f64) -> bool {
        dmax.is_finite()
            && anchor.min_x - dmax >= self.coverage.min_x
            && anchor.min_y - dmax >= self.coverage.min_y
            && anchor.max_x + dmax <= self.coverage.max_x
            && anchor.max_y + dmax <= self.coverage.max_y
    }
}

/// The full tiling of one scene epoch: every shard plus the routing grid.
/// Built once per published epoch and shared immutably by all readers.
#[derive(Debug)]
pub struct ShardSet {
    spec: ShardSpec,
    bounds: Rect,
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Tiles `scene` per `spec`: the scene bounding box is cut into the
    /// grid, each tile indexes the points inside — and the obstacles
    /// intersecting — its margin-expanded coverage rect.
    pub fn build(scene: &Scene<'_>, spec: ShardSpec) -> Self {
        let bounds = scene_bounds(scene);
        let tile_w = bounds.width() / spec.nx as f64;
        let tile_h = bounds.height() / spec.ny as f64;
        let mut shards = Vec::with_capacity(spec.nx * spec.ny);
        for iy in 0..spec.ny {
            for ix in 0..spec.nx {
                let core = Rect::new(
                    bounds.min_x + tile_w * ix as f64,
                    bounds.min_y + tile_h * iy as f64,
                    bounds.min_x + tile_w * (ix + 1) as f64,
                    bounds.min_y + tile_h * (iy + 1) as f64,
                );
                let coverage = Rect::new(
                    core.min_x - spec.margin,
                    core.min_y - spec.margin,
                    core.max_x + spec.margin,
                    core.max_y + spec.margin,
                );
                let points: Vec<DataPoint> = scene
                    .data_tree()
                    .iter_items()
                    .filter(|p| coverage.contains(p.pos))
                    .copied()
                    .collect();
                let obstacles: Vec<Rect> = scene
                    .obstacle_tree()
                    .iter_items()
                    .filter(|o| o.intersects(&coverage))
                    .copied()
                    .collect();
                shards.push(Shard {
                    core,
                    coverage,
                    data: RStarTree::bulk_load(points, DEFAULT_PAGE_SIZE),
                    obstacles: RStarTree::bulk_load(obstacles, DEFAULT_PAGE_SIZE),
                });
            }
        }
        ShardSet {
            spec,
            bounds,
            shards,
        }
    }

    /// The tiling parameters this set was built with.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The scene bounding box the grid tiles.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// All shards, row-major.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Routes a query to the shard whose core tile contains the center of
    /// `anchor` (clamped to the grid, so anchors outside the scene bounds
    /// land in the nearest edge tile). `None` only for non-finite anchors.
    pub fn route(&self, anchor: &Rect) -> Option<&Shard> {
        // checked on the raw coordinates: the center of a non-finite rect
        // is not a point the (sanitized) constructors accept
        let coords = [anchor.min_x, anchor.min_y, anchor.max_x, anchor.max_y];
        if !coords.iter().all(|v| v.is_finite()) {
            return None;
        }
        let c = anchor.center();
        let tile = |v: f64, lo: f64, extent: f64, n: usize| -> usize {
            if extent <= 0.0 {
                return 0;
            }
            let i = ((v - lo) / extent * n as f64).floor();
            (i.max(0.0) as usize).min(n - 1)
        };
        let ix = tile(c.x, self.bounds.min_x, self.bounds.width(), self.spec.nx);
        let iy = tile(c.y, self.bounds.min_y, self.bounds.height(), self.spec.ny);
        self.shards.get(iy * self.spec.nx + ix)
    }
}

/// The scene's bounding box: union of every data point and obstacle MBR.
/// Empty scenes get a degenerate unit box so the grid math stays finite.
fn scene_bounds(scene: &Scene<'_>) -> Rect {
    let mut acc: Option<Rect> = None;
    let mut grow = |r: Rect| {
        acc = Some(match acc.take() {
            Some(b) => b.union(&r),
            None => r,
        });
    };
    for p in scene.data_tree().iter_items() {
        grow(Rect::from_point(p.pos));
    }
    for o in scene.obstacle_tree().iter_items() {
        grow(*o);
    }
    acc.unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn scene() -> Scene<'static> {
        let points: Vec<DataPoint> = (0..40)
            .map(|i| {
                DataPoint::new(
                    i,
                    Point::new((i as f64 * 37.0) % 1000.0, (i as f64 * 91.0) % 1000.0),
                )
            })
            .collect();
        let obstacles = vec![
            Rect::new(100.0, 100.0, 180.0, 160.0),
            Rect::new(700.0, 650.0, 780.0, 720.0),
            Rect::new(480.0, 480.0, 520.0, 520.0),
        ];
        Scene::new(points, obstacles)
    }

    #[test]
    fn spec_rejects_degenerate_grids() {
        assert!(ShardSpec::new(0, 2, 10.0).is_err());
        assert!(ShardSpec::new(2, 2, -1.0).is_err());
        assert!(ShardSpec::new(2, 2, f64::NAN).is_err());
        assert!(ShardSpec::new(2, 2, 0.0).is_ok());
    }

    #[test]
    fn every_item_lands_in_some_shard_and_overlap_duplicates() {
        let s = scene();
        let set = ShardSet::build(&s, ShardSpec::new(2, 2, 150.0).unwrap());
        assert_eq!(set.shards().len(), 4);
        let total_points: usize = set.shards().iter().map(|sh| sh.data_tree().len()).sum();
        // every point is in at least its home shard; margin overlap makes
        // the shard total at least the scene total
        assert!(total_points >= s.num_points());
        let total_obs: usize = set.shards().iter().map(|sh| sh.obstacle_tree().len()).sum();
        assert!(total_obs >= s.num_obstacles());
    }

    #[test]
    fn routing_is_total_over_finite_anchors() {
        let s = scene();
        let set = ShardSet::build(&s, ShardSpec::new(3, 2, 50.0).unwrap());
        for (x, y) in [(0.0, 0.0), (999.0, 999.0), (-500.0, 2000.0), (500.0, 500.0)] {
            let anchor = Rect::from_point(Point::new(x, y));
            let shard = set.route(&anchor).expect("finite anchor routes");
            // clamped routing: the anchor center is inside (or clamped to)
            // the shard's core tile, never outside the grid
            assert!(shard.core().width() > 0.0);
        }
        // built field by field: the audited constructors would reject the
        // NaN (under `sanitize-invariants`) before `route` ever saw it
        let nan = Rect {
            min_x: f64::NAN,
            min_y: 0.0,
            max_x: f64::NAN,
            max_y: 0.0,
        };
        assert!(set.route(&nan).is_none());
    }

    #[test]
    fn certificate_matches_containment() {
        let s = scene();
        let set = ShardSet::build(&s, ShardSpec::new(2, 2, 200.0).unwrap());
        let anchor = Rect::from_point(Point::new(250.0, 250.0));
        let shard = set.route(&anchor).unwrap();
        // small expansion fits deep inside the expanded tile...
        assert!(shard.certifies(&anchor, 10.0));
        // ...but an expansion past the margin cannot be certified
        assert!(!shard.certifies(&anchor, 1e6));
        assert!(!shard.certifies(&anchor, f64::INFINITY));
    }
}
