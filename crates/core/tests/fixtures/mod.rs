//! Paper-style scenes for the serving and equivalence suites.

use conn_core::{DataPoint, Scene};

/// LA-like obstacles with uniformly distributed data points (the UL
/// combination of §5), or with CA-like *clustered* ones (CL).
pub fn paper_scene(
    n_points: usize,
    n_obstacles: usize,
    seed: u64,
    clustered: bool,
) -> Scene<'static> {
    let obstacles = conn_datasets::la_like(n_obstacles, seed);
    let points = if clustered {
        conn_datasets::ca_like(n_points, seed.wrapping_add(1), &obstacles)
    } else {
        conn_datasets::uniform_points(n_points, seed.wrapping_add(1), &obstacles)
    };
    Scene::new(DataPoint::from_points(&points), obstacles)
}
