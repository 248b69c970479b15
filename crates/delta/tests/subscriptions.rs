//! Delivery-contract suite for the subscription layer.
//!
//! Interleaved subscribe/unsubscribe during churn must deliver every
//! matched delta exactly once, in epoch order, and nothing from epochs
//! outside the subscription's lifetime — and replaying the full
//! recorded delta stream into a [`TreeReplica`] starting from an empty
//! tree must reconstruct the engine's final hierarchy byte for byte.

use idb_clustering::ExtractParams;
use idb_core::{IncrementalBubbles, MaintainerConfig};
use idb_delta::{
    ClusterDelta, ClusterId, DeltaEngine, DeltaParams, Interest, TreeReplica, VersionedDelta,
};
use idb_geometry::{Parallelism, SearchStats};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

const DIM: usize = 2;
const EPOCHS: u64 = 10;

/// Drives a churn-heavy scenario for [`EPOCHS`] epochs, calling
/// `at_epoch(engine, epoch)` before each epoch runs and
/// `after_epoch(engine, epoch, &report_deltas)` after it.
fn drive(
    mut at_epoch: impl FnMut(&mut DeltaEngine, u64),
    mut after_epoch: impl FnMut(&mut DeltaEngine, u64, &[ClusterDelta]),
) -> DeltaEngine {
    let spec = ScenarioSpec::named(ScenarioKind::Complex, DIM, 500, 0.12);
    let mut scenario = ScenarioEngine::new(spec);
    let mut srng = StdRng::seed_from_u64(4242);
    let mut store = scenario.populate(&mut srng);
    let mut mrng = StdRng::seed_from_u64(7);
    let mut search = SearchStats::new();
    let mut bubbles =
        IncrementalBubbles::build(&store, MaintainerConfig::new(14), &mut mrng, &mut search);
    let mut engine = DeltaEngine::new(DeltaParams {
        eps: f64::INFINITY,
        min_pts: 6,
        extract: ExtractParams::with_min_size(8),
        par: Parallelism::Serial,
    });
    for epoch in 0..EPOCHS {
        if epoch > 0 {
            let batch = scenario.plan(&mut srng);
            let got = bubbles.apply_batch(&mut store, &batch, &mut search);
            scenario.confirm(&got);
            bubbles.maintain(&store, &mut mrng, &mut search);
        }
        at_epoch(&mut engine, epoch);
        let report = engine.maintainer_epoch(&bubbles);
        assert_eq!(report.epoch, epoch);
        after_epoch(&mut engine, epoch, &report.deltas);
    }
    engine
}

#[test]
fn a_tree_subscription_sees_every_delta_exactly_once_in_epoch_order() {
    let sub = Cell::new(None);
    let mut received: Vec<VersionedDelta> = Vec::new();
    let mut emitted: Vec<(u64, ClusterDelta)> = Vec::new();
    let engine = drive(
        |engine, epoch| {
            if epoch == 0 {
                sub.set(Some(engine.subscribe(Interest::Tree)));
            }
        },
        |engine, epoch, deltas| {
            emitted.extend(deltas.iter().map(|d| (epoch, d.clone())));
            // Poll on every other epoch only: queued deltas must survive
            // un-drained across epochs and still come out in order.
            if epoch % 2 == 1 || epoch == EPOCHS - 1 {
                received.extend(engine.poll(sub.get().unwrap()));
            }
        },
    );
    let got: Vec<(u64, ClusterDelta)> = received.into_iter().map(|v| (v.epoch, v.delta)).collect();
    assert_eq!(got, emitted, "exactly once, in epoch order");
    assert!(
        emitted
            .iter()
            .map(|(e, _)| *e)
            .collect::<Vec<u64>>()
            .windows(2)
            .all(|w| w[0] <= w[1]),
        "epoch stamps are nondecreasing"
    );
    assert!(!engine.clusters().is_empty(), "the run produced a tree");
}

#[test]
fn replaying_the_recorded_stream_reconstructs_the_final_tree() {
    let sub = Cell::new(None);
    let mut replica = TreeReplica::new();
    let engine = drive(
        |engine, epoch| {
            if epoch == 0 {
                sub.set(Some(engine.subscribe(Interest::Tree)));
            }
        },
        |engine, _, _| {
            for v in engine.poll(sub.get().unwrap()) {
                replica.apply(&v.delta);
            }
        },
    );
    assert_eq!(
        replica.snapshot(),
        engine.clusters(),
        "replay from empty reconstructs the hierarchy byte for byte"
    );
}

#[test]
fn a_mid_stream_subscription_is_bounded_by_its_lifetime() {
    const FROM: u64 = 3;
    const UNTIL: u64 = 7; // unsubscribed before epoch 7 runs
    let all = Cell::new(None);
    let mid = Cell::new(None);
    let mut from_all: Vec<VersionedDelta> = Vec::new();
    let mut from_mid: Vec<VersionedDelta> = Vec::new();
    drive(
        |engine, epoch| {
            if epoch == 0 {
                all.set(Some(engine.subscribe(Interest::Tree)));
            }
            if epoch == FROM {
                mid.set(Some(engine.subscribe(Interest::Tree)));
            }
            if epoch == UNTIL {
                // Undrained deltas die with the subscription.
                assert!(engine.unsubscribe(mid.get().unwrap()));
                assert!(!engine.unsubscribe(mid.get().unwrap()), "already gone");
            }
        },
        |engine, epoch, _| {
            from_all.extend(engine.poll(all.get().unwrap()));
            if (FROM..UNTIL).contains(&epoch) && epoch + 1 != UNTIL {
                from_mid.extend(engine.poll(mid.get().unwrap()));
            }
            if epoch >= UNTIL {
                assert!(
                    engine.poll(mid.get().unwrap()).is_empty(),
                    "nothing delivered after unsubscribe"
                );
            }
        },
    );
    // The mid-stream subscriber saw exactly the full stream's slice for
    // the epochs it was alive and polled — nothing earlier, nothing
    // later, nothing twice. (The final alive epoch was intentionally
    // left undrained; those deltas were dropped at unsubscribe.)
    let expect: Vec<VersionedDelta> = from_all
        .iter()
        .filter(|v| (FROM..UNTIL - 1).contains(&v.epoch))
        .cloned()
        .collect();
    assert_eq!(from_mid, expect);
    assert!(
        from_mid.iter().all(|v| v.epoch >= FROM),
        "nothing from before subscribe"
    );
}

#[test]
fn subtree_and_predicate_interests_filter_consistently() {
    let tree_sub = Cell::new(None);
    let root_sub = Cell::new(None);
    let retired_sub = Cell::new(None);
    let mut all: Vec<VersionedDelta> = Vec::new();
    let mut under_root: Vec<VersionedDelta> = Vec::new();
    let mut retired: Vec<VersionedDelta> = Vec::new();
    drive(
        |engine, epoch| {
            if epoch == 0 {
                tree_sub.set(Some(engine.subscribe(Interest::Tree)));
                // The root id is pinned to 0 for the engine's lifetime,
                // so subscribing to its subtree before the first epoch is
                // well-defined — and must match everything.
                root_sub.set(Some(engine.subscribe(Interest::Subtree(ClusterId(0)))));
                retired_sub.set(Some(engine.subscribe(Interest::Predicate(Box::new(|d| {
                    matches!(d, ClusterDelta::Retired { .. })
                })))));
            }
        },
        |engine, _, _| {
            all.extend(engine.poll(tree_sub.get().unwrap()));
            under_root.extend(engine.poll(root_sub.get().unwrap()));
            retired.extend(engine.poll(retired_sub.get().unwrap()));
        },
    );
    assert_eq!(
        all, under_root,
        "every delta's subject is under the root by ancestry"
    );
    let expect: Vec<VersionedDelta> = all
        .iter()
        .filter(|v| matches!(v.delta, ClusterDelta::Retired { .. }))
        .cloned()
        .collect();
    assert_eq!(retired, expect, "predicate sees exactly its matches");
}
