//! The output checks accept a correct run and reject a wrong expected
//! result, a replica that missed a delta, a state the audit flags, and a
//! read that returned wrong coordinates.

use idb_core::{IncrementalBubbles, MaintainerConfig, SeedSearch};
use idb_delta::{ClusterDelta, DeltaEngine, DeltaParams, Interest, TreeReplica};
use idb_geometry::{Parallelism, SearchStats};
use idb_store::{PointId, PointStore};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use perfbench::verify;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MIN_PTS: usize = 10;
const MIN_CLUSTER: usize = 20;

fn local(_: u32, id: PointId) -> u64 {
    u64::from(id.0)
}

/// A small maintained summary with its delta engine current, and every
/// delta a `Tree` subscription polled.
fn fixture() -> (
    PointStore,
    IncrementalBubbles,
    DeltaEngine,
    Vec<ClusterDelta>,
) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut scenario =
        ScenarioEngine::new(ScenarioSpec::named(ScenarioKind::Complex, 2, 3_000, 0.02));
    let mut store = scenario.populate(&mut rng);
    let mut search = SearchStats::new();
    let config = MaintainerConfig::new(40)
        .with_seed_search(SeedSearch::Pruned)
        .with_parallelism(Parallelism::Serial);
    let mut bubbles = IncrementalBubbles::build(&store, config, &mut rng, &mut search);
    let mut engine = DeltaEngine::new(DeltaParams {
        par: Parallelism::Serial,
        ..DeltaParams::new(MIN_PTS, MIN_CLUSTER)
    });
    let sub = engine.subscribe(Interest::Tree);
    let mut deltas = Vec::new();
    for _ in 0..4 {
        let batch = scenario.plan(&mut rng);
        let ids = bubbles.apply_batch(&mut store, &batch, &mut search);
        scenario.confirm(&ids);
        bubbles.maintain(&store, &mut rng, &mut search);
        engine.maintainer_epoch(&mut bubbles);
        deltas.extend(engine.poll(sub).into_iter().map(|d| d.delta));
    }
    (store, bubbles, engine, deltas)
}

fn replay<'a>(deltas: impl IntoIterator<Item = &'a ClusterDelta>) -> TreeReplica {
    let mut replica = TreeReplica::new();
    for d in deltas {
        replica.apply(d);
    }
    replica
}

#[test]
fn a_correct_state_passes_every_check() {
    let (store, bubbles, engine, deltas) = fixture();
    verify::check_delta(
        &engine,
        &replay(&deltas),
        &[bubbles.bubbles()],
        local,
        MIN_PTS,
        MIN_CLUSTER,
    )
    .expect("delta state matches the from-scratch pipeline");
    verify::check_audit(&store, &bubbles).expect("audit is clean");
}

#[test]
fn a_wrong_expected_membership_is_rejected() {
    let (_, bubbles, engine, _) = fixture();
    let (plot, tree) = verify::scratch(&[bubbles.bubbles()], local, MIN_PTS, MIN_CLUSTER);
    let mut expected = verify::tree_memberships(&plot, &tree);
    verify::check_memberships(&expected, &engine.clusters()).expect("unperturbed reference");
    let last = expected.last_mut().expect("at least the root");
    last.pop();
    assert!(verify::check_memberships(&expected, &engine.clusters()).is_err());
    expected.pop();
    assert!(verify::check_memberships(&expected, &engine.clusters()).is_err());
}

#[test]
fn a_reference_over_different_bubbles_is_rejected() {
    let (_, mut bubbles, engine, deltas) = fixture();
    // The engine saw the bubbles before this member vanished; the
    // reference sees them after.
    let victim = (0..bubbles.bubbles().len())
        .find(|&b| bubbles.bubbles()[b].members().len() > 1)
        .expect("a populated bubble");
    bubbles.corrupt_pop_member(victim);
    let err = verify::check_delta(
        &engine,
        &replay(&deltas),
        &[bubbles.bubbles()],
        local,
        MIN_PTS,
        MIN_CLUSTER,
    )
    .expect_err("the reference no longer matches");
    assert!(!err.is_empty());
}

#[test]
fn a_perturbed_plot_is_rejected() {
    let (_, bubbles, engine, _) = fixture();
    let (plot, _) = verify::scratch(&[bubbles.bubbles()], local, MIN_PTS, MIN_CLUSTER);
    verify::check_plot(&plot, engine.plot()).expect("unperturbed plot");
    let mut entries = plot.entries().to_vec();
    entries.swap(0, 1);
    let swapped = idb_clustering::ReachabilityPlot::from_entries(entries);
    assert!(verify::check_plot(&swapped, engine.plot()).is_err());
}

#[test]
fn a_replica_that_missed_a_delta_is_rejected() {
    let (_, _, engine, deltas) = fixture();
    verify::check_replica(&replay(&deltas), &engine.clusters()).expect("full stream");
    // Dropping the first delta (the root's birth) loses a cluster.
    assert!(verify::check_replica(&replay(&deltas[1..]), &engine.clusters()).is_err());
}

#[test]
fn a_corrupted_maintainer_fails_the_audit() {
    let (store, mut bubbles, _, _) = fixture();
    bubbles.corrupt_total(1);
    assert!(verify::check_audit(&store, &bubbles).is_err());
}

#[test]
fn a_read_with_wrong_coordinates_is_rejected() {
    let mut live = perfbench::run::LiveSet::new(2);
    live.insert(7, &[0.25, -1.5]);
    live.insert(9, &[3.0, 4.0]);
    let ids = [9, 7, 9];
    let mut got = vec![3.0, 4.0, 0.25, -1.5, 3.0, 4.0];
    verify::check_reads(&live, &ids, &got).expect("the inserted coordinates");
    // The wrong point's coordinates, a one-ulp change, and a short read.
    got.swap(0, 2);
    assert!(verify::check_reads(&live, &ids, &got).is_err());
    got.swap(0, 2);
    got[3] = f64::from_bits((-1.5f64).to_bits() + 1);
    assert!(verify::check_reads(&live, &ids, &got).is_err());
    assert!(verify::check_reads(&live, &ids, &got[..4]).is_err());
}
