//! Output checks run at the end of every run. Each returns a description
//! of the first mismatch, so a failing run says what was wrong.

use idb_clustering::{cluster_tree, optics_merged, ClusterNode, ExtractParams, ReachabilityPlot};
use idb_core::{Bubble, IncrementalBubbles};
use idb_delta::{ClusterId, DeltaEngine, TreeReplica};
use idb_geometry::Parallelism;
use idb_store::{PointId, PointStore};

use crate::run::LiveSet;

/// One cluster as `(id, parent, sorted members)`.
pub type Cluster = (ClusterId, Option<ClusterId>, Vec<u64>);

/// The from-scratch reference pipeline — `optics_merged` → `expand` →
/// `cluster_tree` — over `domains`, with point ids translated by `map_id`.
pub fn scratch(
    domains: &[&[Bubble]],
    map_id: impl Fn(u32, PointId) -> u64,
    min_pts: usize,
    min_cluster: usize,
) -> (ReachabilityPlot, ClusterNode) {
    let (refs, ordering) = optics_merged(domains, f64::INFINITY, min_pts, Parallelism::Serial);
    let plot = ordering.expand(|i| {
        let r = refs[i];
        domains[r.domain as usize][r.index]
            .members()
            .iter()
            .map(|&id| map_id(r.domain, id))
            .collect::<Vec<u64>>()
    });
    let tree = cluster_tree(&plot, &ExtractParams::with_min_size(min_cluster));
    (plot, tree)
}

/// Every node's sorted membership, the list sorted.
#[must_use]
pub fn tree_memberships(plot: &ReachabilityPlot, tree: &ClusterNode) -> Vec<Vec<u64>> {
    fn walk(plot: &ReachabilityPlot, node: &ClusterNode, out: &mut Vec<Vec<u64>>) {
        let mut m: Vec<u64> = plot.entries()[node.range.0..node.range.1]
            .iter()
            .map(|e| e.id)
            .collect();
        m.sort_unstable();
        out.push(m);
        for c in &node.children {
            walk(plot, c, out);
        }
    }
    let mut out = Vec::new();
    walk(plot, tree, &mut out);
    out.sort();
    out
}

/// The delta-maintained memberships equal the reference's.
///
/// # Errors
/// Describes the first difference.
pub fn check_memberships(expected: &[Vec<u64>], clusters: &[Cluster]) -> Result<(), String> {
    let mut got: Vec<Vec<u64>> = clusters.iter().map(|c| c.2.clone()).collect();
    got.sort();
    if got.len() != expected.len() {
        return Err(format!(
            "delta tree has {} clusters, from-scratch tree has {}",
            got.len(),
            expected.len()
        ));
    }
    match got.iter().zip(expected).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "cluster membership {i} differs from the from-scratch pipeline \
             ({} vs {} members)",
            got[i].len(),
            expected[i].len()
        )),
    }
}

/// The delta engine's reachability plot equals the reference's bit for bit.
///
/// # Errors
/// Describes the first difference.
pub fn check_plot(
    expected: &ReachabilityPlot,
    got: Option<&ReachabilityPlot>,
) -> Result<(), String> {
    let got = got.ok_or("delta engine has run no epoch")?;
    let (a, b) = (expected.entries(), got.entries());
    if a.len() != b.len() {
        return Err(format!("plot length {} vs {}", b.len(), a.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.id != y.id || x.reachability.to_bits() != y.reachability.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "plot entry {i} differs from the from-scratch pipeline"
        )),
    }
}

/// A replica fed only from polled deltas equals the engine's hierarchy.
///
/// # Errors
/// Describes the difference.
pub fn check_replica(replica: &TreeReplica, clusters: &[Cluster]) -> Result<(), String> {
    let snap = replica.snapshot();
    if snap == clusters {
        Ok(())
    } else {
        Err(format!(
            "replica from polled deltas holds {} clusters, engine holds {} (or contents differ)",
            snap.len(),
            clusters.len()
        ))
    }
}

/// All delta-side checks against the reference over `domains`.
///
/// # Errors
/// The first failing check.
pub fn check_delta(
    engine: &DeltaEngine,
    replica: &TreeReplica,
    domains: &[&[Bubble]],
    map_id: impl Fn(u32, PointId) -> u64,
    min_pts: usize,
    min_cluster: usize,
) -> Result<(), String> {
    let (plot, tree) = scratch(domains, map_id, min_pts, min_cluster);
    let clusters = engine.clusters();
    check_plot(&plot, engine.plot())?;
    check_memberships(&tree_memberships(&plot, &tree), &clusters)?;
    check_replica(replica, &clusters)
}

/// The maintainer's invariant audit is clean.
///
/// # Errors
/// The audit's findings.
pub fn check_audit(store: &PointStore, bubbles: &IncrementalBubbles) -> Result<(), String> {
    bubbles
        .audit(store)
        .map(|_| ())
        .map_err(|e| format!("audit: {e}"))
}

/// One probe's lookups returned, in order, the coordinates `live` holds
/// for `ids`, bit for bit.
///
/// # Errors
/// Names the first id whose coordinates differ.
pub fn check_reads(live: &LiveSet, ids: &[u64], got: &[f64]) -> Result<(), String> {
    let dim = live.dim();
    if got.len() != ids.len() * dim {
        return Err(format!(
            "{} lookups returned {} coordinates, expected {}",
            ids.len(),
            got.len(),
            ids.len() * dim
        ));
    }
    for (&id, got) in ids.iter().zip(got.chunks_exact(dim.max(1))) {
        let want = live.coords(id);
        if !got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Err(format!(
                "read of point {id} returned {got:?}, inserted {want:?}"
            ));
        }
    }
    Ok(())
}

/// Complete observable state of one maintainer.
#[must_use]
pub fn fingerprint(store: &PointStore, bubbles: &IncrementalBubbles) -> Vec<u8> {
    let mut bytes = Vec::new();
    store.write_snapshot(&mut bytes).expect("in-memory write");
    bubbles.write_snapshot(&mut bytes).expect("in-memory write");
    bytes
}

/// Leaf clusters of a hierarchy: the flat clustering scored by F.
#[must_use]
pub fn leaves(clusters: &[Cluster]) -> Vec<Vec<u64>> {
    clusters
        .iter()
        .filter(|(id, _, _)| !clusters.iter().any(|c| c.1 == Some(*id)))
        .map(|c| c.2.clone())
        .collect()
}
