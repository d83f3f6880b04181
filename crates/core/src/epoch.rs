//! Epoch-snapshot publication of scenes (serving layer).
//!
//! A [`SceneEpoch`] is one immutable, numbered snapshot of the world: the
//! [`Scene`] itself and (on sharded services) the [`ShardSet`] tiling.
//! Readers *pin* the current epoch at query start
//! ([`crate::ConnService::pin`]) and run entirely against that snapshot; a
//! writer builds the next epoch off to the side and publishes it with one
//! atomic pointer swap ([`crate::ConnService::publish`]).
//!
//! Retirement is deferred, not reference-counted by hand: a published-over
//! epoch stays fully alive for as long as any [`PinnedEpoch`] still holds
//! its `Arc`, and is reclaimed by the last drop — the epoch's `Drop` impl
//! bumps a shared retirement ledger so tests and telemetry can observe
//! the deferral. A reader pinned to epoch N therefore returns answers
//! byte-identical to a serial run against epoch N even while epochs
//! N+1, N+2, … publish mid-query (the `serving.rs` stress test pins this).

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(clippy::disallowed_types, reason = "EpochCell's publication lock")]
use std::sync::{Arc, RwLock};

use conn_geom::Point;

use crate::config::ConnConfig;
use crate::service::Scene;
use crate::session::TrajectorySession;
use crate::shard::{ShardSet, ShardSpec};

/// One immutable, numbered snapshot of the scene (plus its derived
/// serving structures). Readers access it through a [`PinnedEpoch`].
#[derive(Debug)]
pub struct SceneEpoch<'a> {
    epoch: u64,
    scene: Scene<'a>,
    shards: Option<ShardSet>,
    retired: Arc<AtomicU64>,
}

impl<'a> SceneEpoch<'a> {
    /// This snapshot's epoch number (0 for the scene the service was
    /// built with, +1 per publication).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's scene.
    pub fn scene(&self) -> &Scene<'a> {
        &self.scene
    }

    /// The snapshot's shard tiling, if the service is sharded.
    pub fn shards(&self) -> Option<&ShardSet> {
        self.shards.as_ref()
    }

    /// Opens a streaming trajectory CONN session (k = 1) against this
    /// snapshot (on an engine of its own). The session borrows the epoch,
    /// so the pin keeps the snapshot alive for the session's whole
    /// lifetime — later publications cannot pull the scene out from under
    /// it.
    pub fn open_session(&self, start: Point, cfg: ConnConfig) -> TrajectorySession<'_> {
        TrajectorySession::new(
            self.scene.data_tree(),
            self.scene.obstacle_tree(),
            start,
            1,
            cfg,
        )
    }
}

impl Drop for SceneEpoch<'_> {
    fn drop(&mut self) {
        // The last holder (current slot or final pin) just released this
        // snapshot: record the deferred retirement.
        self.retired.fetch_add(1, Ordering::Relaxed);
    }
}

/// A reader's pin on one epoch: a cheap clone of the snapshot `Arc`.
/// Everything on [`SceneEpoch`] is reachable through `Deref`; the pinned
/// snapshot stays fully alive — trees and shards — until the last
/// clone drops, however many epochs publish in the meantime.
#[derive(Debug, Clone)]
pub struct PinnedEpoch<'a> {
    inner: Arc<SceneEpoch<'a>>,
}

impl<'a> Deref for PinnedEpoch<'a> {
    type Target = SceneEpoch<'a>;

    fn deref(&self) -> &SceneEpoch<'a> {
        &self.inner
    }
}

/// The publication slot: the service-owned cell readers pin the current
/// epoch from and writers publish the next epoch into.
///
/// The lock is held only long enough to clone (readers) or swap (writers)
/// one `Arc` — never across a query or an epoch build, so readers never
/// wait on scene construction and writers never wait on queries.
#[derive(Debug)]
pub(crate) struct EpochCell<'a> {
    #[expect(
        clippy::disallowed_types,
        reason = "swap-only critical sections: held to clone or swap one Arc; epochs themselves are immutable"
    )]
    current: RwLock<Arc<SceneEpoch<'a>>>,
    retired: Arc<AtomicU64>,
}

impl<'a> EpochCell<'a> {
    /// Wraps `scene` as epoch 0, tiled per `spec` if given.
    pub(crate) fn new(scene: Scene<'a>, spec: Option<ShardSpec>) -> Self {
        let retired = Arc::new(AtomicU64::new(0));
        let shards = spec.map(|s| ShardSet::build(&scene, s));
        let initial = Arc::new(SceneEpoch {
            epoch: 0,
            scene,
            shards,
            retired: Arc::clone(&retired),
        });
        EpochCell {
            #[expect(clippy::disallowed_types, reason = "the publication lock")]
            current: RwLock::new(initial),
            retired,
        }
    }

    /// Pins the current epoch: one read-locked `Arc` clone.
    pub(crate) fn pin(&self) -> PinnedEpoch<'a> {
        let guard = self
            .current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        PinnedEpoch {
            inner: Arc::clone(&guard),
        }
    }

    /// Publishes `scene` as the next epoch and returns its number. The
    /// shard tiling is built *before* the write lock is taken; the lock
    /// only assigns the number and swaps the `Arc`, serializing
    /// concurrent publishers.
    pub(crate) fn publish(&self, scene: Scene<'a>, spec: Option<ShardSpec>) -> u64 {
        let shards = spec.map(|s| ShardSet::build(&scene, s));
        let mut guard = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let epoch = guard.epoch + 1;
        *guard = Arc::new(SceneEpoch {
            epoch,
            scene,
            shards,
            retired: Arc::clone(&self.retired),
        });
        epoch
    }

    /// The number of the currently published epoch.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// How many published-over epochs have been fully released (their last
    /// pin dropped). Retirement is deferred: publishing over a pinned
    /// epoch does not bump this until the reader lets go.
    pub(crate) fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// How many epochs are still alive — the current one plus every
    /// published-over epoch a reader still pins. Ever-created epochs are
    /// `current_epoch + 1` (numbering starts at 0), so the ledger balance
    /// is `created − retired`. Under concurrent publishers/droppers the
    /// two loads are not one atomic snapshot; the value is
    /// monotonic-consistent, not linearizable (saturating guards the
    /// transient where a retire lands between the loads).
    pub(crate) fn live(&self) -> u64 {
        let created = self.current_epoch() + 1;
        created.saturating_sub(self.retired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataPoint;
    use conn_geom::Rect;

    fn scene(tag: u32) -> Scene<'static> {
        Scene::new(
            vec![DataPoint::new(tag, Point::new(10.0 + tag as f64, 20.0))],
            vec![Rect::new(30.0, 5.0, 40.0, 30.0)],
        )
    }

    #[test]
    fn publication_bumps_epoch_and_defers_retirement() {
        let cell = EpochCell::new(scene(0), None);
        assert_eq!(cell.current_epoch(), 0);
        assert_eq!(cell.retired(), 0);

        let pin = cell.pin();
        assert_eq!(pin.epoch(), 0);
        assert_eq!(cell.publish(scene(1), None), 1);
        assert_eq!(cell.current_epoch(), 1);
        // epoch 0 is published over but still pinned: not yet retired
        assert_eq!(cell.retired(), 0);
        assert_eq!(pin.epoch(), 0);
        assert_eq!(pin.scene().data_tree().iter_items().next().unwrap().id, 0);

        drop(pin);
        assert_eq!(cell.retired(), 1);
    }

    #[test]
    fn live_ledger_balances_created_minus_retired() {
        let cell = EpochCell::new(scene(0), None);
        assert_eq!(cell.live(), 1, "epoch 0 alone");
        let pin = cell.pin();
        cell.publish(scene(1), None);
        assert_eq!(cell.live(), 2, "epoch 0 pinned + epoch 1 current");
        cell.publish(scene(2), None);
        // epoch 1 had no pins: published over -> retired immediately
        assert_eq!(cell.live(), 2, "epoch 0 pinned + epoch 2 current");
        drop(pin);
        assert_eq!(cell.live(), 1, "only the current epoch remains");
        assert_eq!(cell.retired(), 2);
    }

    #[test]
    fn clones_share_the_pin() {
        let cell = EpochCell::new(scene(0), None);
        let a = cell.pin();
        let b = a.clone();
        cell.publish(scene(1), None);
        drop(a);
        assert_eq!(cell.retired(), 0, "clone still pins epoch 0");
        drop(b);
        assert_eq!(cell.retired(), 1);
    }
}
