//! The delta clustering engine.
//!
//! Every [`DeltaEngine::epoch`] runs the from-scratch bubble-level
//! pipeline over the domains it is shown and diffs the result against
//! the previous epoch:
//!
//! 1. **Ordering** — [`optics_merged`] over the domains, domain-major;
//! 2. **Expansion** — the bubble ordering expanded into a point-level
//!    reachability plot;
//! 3. **Extraction** — [`cluster_tree`] over that plot;
//! 4. **Diff** — the new tree is diffed against the previous epoch's
//!    identity tree into typed [`ClusterDelta`]s with stable cluster
//!    ids, fanned out to registered subscriptions.
//!
//! The engine keeps no cross-epoch clustering state besides the identity
//! tree the diff needs, so an epoch cannot go stale: maintainer repairs,
//! partition restarts and domain-count changes need no special handling.
//! At `s` in the hundreds the `O(s²)` ordering is a few milliseconds,
//! and caching distance rows or tree components across epochs measured
//! slower than recomputing them (DESIGN.md §14).

use crate::deltas::{diff_trees, ClusterDelta, ClusterId, IdNode};
use crate::subscribe::{Interest, Subscriptions, VersionedDelta};
use idb_clustering::merged::MergedRef;
use idb_clustering::{
    cluster_tree, optics_merged, BubbleOrdering, ClusterNode, ExtractParams, ReachabilityPlot,
};
use idb_core::{Bubble, BubbleChange, IncrementalBubbles};
use idb_geometry::Parallelism;
use idb_obs::{EventKind, Obs};
use idb_store::PointId;
use std::collections::HashMap;

/// Clustering parameters of a [`DeltaEngine`] — fixed for the engine's
/// lifetime so consecutive epochs' trees stay comparable.
#[derive(Debug, Clone)]
pub struct DeltaParams {
    /// OPTICS neighborhood bound (`f64::INFINITY` for the full
    /// hierarchy).
    pub eps: f64,
    /// OPTICS density threshold, counted in points.
    pub min_pts: usize,
    /// Cluster-tree extraction parameters.
    pub extract: ExtractParams,
    /// Parallelism of the pairwise bubble-distance matrix fill (a
    /// wall-clock knob only — outputs are bit-identical across modes).
    pub par: Parallelism,
}

impl DeltaParams {
    /// The full hierarchy (`eps = ∞`) with the given density threshold
    /// and minimum cluster size.
    #[must_use]
    pub fn new(min_pts: usize, min_cluster_size: usize) -> Self {
        Self {
            eps: f64::INFINITY,
            min_pts,
            extract: ExtractParams::with_min_size(min_cluster_size),
            par: Parallelism::default(),
        }
    }
}

/// Cluster-tree extraction counters of one epoch.
///
/// Every epoch extracts the whole tree afresh, so `reused` is always 0
/// and `rebuilt` counts the ordering's components (each OPTICS component
/// starts at an infinite reachability entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeDeltaStats {
    /// Component subtrees copied from a previous epoch (always 0).
    pub reused: usize,
    /// Component subtrees extracted this epoch.
    pub rebuilt: usize,
}

/// What one [`DeltaEngine::epoch`] did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch number (0 for the engine's first epoch).
    pub epoch: u64,
    /// Bubble slots whose distance neighborhood was computed — every
    /// slot, as each epoch recomputes from scratch.
    pub touched: usize,
    /// Total bubble slots across all domains.
    pub total: usize,
    /// The epoch's cluster deltas, in emission order.
    pub deltas: Vec<ClusterDelta>,
    /// Cluster-tree extraction counters.
    pub tree: TreeDeltaStats,
}

/// The artifacts of the engine's most recent epoch.
#[derive(Debug, Clone)]
struct EpochArtifacts {
    refs: Vec<MergedRef>,
    ordering: BubbleOrdering,
    plot: ReachabilityPlot,
    tree: ClusterNode,
}

/// The delta clustering layer. See the module docs.
#[derive(Debug)]
pub struct DeltaEngine {
    params: DeltaParams,
    /// The previous epoch's identity tree (`None` before the first
    /// epoch).
    id_tree: Option<IdNode>,
    next_cluster_id: u64,
    subs: Subscriptions,
    obs: Obs,
    epochs: u64,
    last: Option<EpochArtifacts>,
}

impl DeltaEngine {
    /// An engine with the given parameters and no epochs run.
    #[must_use]
    pub fn new(params: DeltaParams) -> Self {
        assert!(params.min_pts > 0, "min_pts must be positive");
        Self {
            params,
            id_tree: None,
            next_cluster_id: 0,
            subs: Subscriptions::new(),
            obs: Obs::disabled(),
            epochs: 0,
            last: None,
        }
    }

    /// The engine's clustering parameters.
    #[must_use]
    pub fn params(&self) -> &DeltaParams {
        &self.params
    }

    /// Routes observability through `obs`: every epoch emits an
    /// [`EventKind::DeltaEpoch`] journal event and bumps the
    /// `delta.epochs` / `delta.rows_touched` / `delta.rows_total`
    /// counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Epochs run so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The most recent epoch's ordering with per-position provenance,
    /// `None` before the first epoch.
    #[must_use]
    pub fn ordering(&self) -> Option<(&[MergedRef], &BubbleOrdering)> {
        self.last.as_ref().map(|a| (&a.refs[..], &a.ordering))
    }

    /// The most recent epoch's expanded point-level plot, `None` before
    /// the first epoch.
    #[must_use]
    pub fn plot(&self) -> Option<&ReachabilityPlot> {
        self.last.as_ref().map(|a| &a.plot)
    }

    /// The most recent epoch's extracted cluster tree (plot ranges and
    /// split values), `None` before the first epoch.
    #[must_use]
    pub fn tree(&self) -> Option<&ClusterNode> {
        self.last.as_ref().map(|a| &a.tree)
    }

    /// The current hierarchy as `(id, parent, members)` sorted by id —
    /// exactly what replaying the full delta stream into a
    /// [`TreeReplica`](crate::TreeReplica) reconstructs. Empty before the
    /// first epoch.
    #[must_use]
    pub fn clusters(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        self.id_tree
            .as_ref()
            .map_or_else(Vec::new, IdNode::canonical)
    }

    /// Registers a subscription and returns its id. Journals an
    /// [`EventKind::DeltaSubscribe`] event.
    pub fn subscribe(&mut self, interest: Interest) -> crate::SubscriptionId {
        let id = self.subs.subscribe(interest);
        self.obs.emit(EventKind::DeltaSubscribe { id: id.0 }, 0);
        id
    }

    /// Cancels a subscription, dropping any undelivered deltas. Returns
    /// `false` if the id is unknown (already cancelled). Journals an
    /// [`EventKind::DeltaUnsubscribe`] event when it removed something.
    pub fn unsubscribe(&mut self, id: crate::SubscriptionId) -> bool {
        let removed = self.subs.unsubscribe(id);
        if removed {
            self.obs.emit(EventKind::DeltaUnsubscribe { id: id.0 }, 0);
        }
        removed
    }

    /// Drains the deltas queued for a subscription since the last poll
    /// (empty if the id is unknown).
    pub fn poll(&mut self, id: crate::SubscriptionId) -> Vec<VersionedDelta> {
        self.subs.poll(id)
    }

    /// Runs one epoch over a single unsharded maintainer's bubbles.
    /// Point ids in plots and memberships are the maintainer's own store
    /// ids.
    pub fn maintainer_epoch(&mut self, bubbles: &IncrementalBubbles) -> EpochReport {
        self.epoch(&[bubbles.bubbles()], vec![None], |_, id| u64::from(id.0))
    }

    /// Runs one epoch over `domains` (one slice of bubbles per
    /// maintainer domain, in a fixed domain order), with `map_id`
    /// translating a domain-local point id into the global id space used
    /// in plots and memberships.
    ///
    /// `changes` is accepted and ignored: the epoch recomputes the
    /// ordering, plot and tree from the domains alone, as the
    /// `optics_merged` → `expand` → `cluster_tree` pipeline.
    pub fn epoch(
        &mut self,
        domains: &[&[Bubble]],
        _changes: Vec<Option<Vec<BubbleChange>>>,
        map_id: impl Fn(u32, PointId) -> u64,
    ) -> EpochReport {
        let timer = self.obs.start();
        let p = &self.params;

        let (refs, ordering) = optics_merged(domains, p.eps, p.min_pts, p.par);
        let plot = ordering.expand(|i| {
            let r = refs[i];
            domains[r.domain as usize][r.index]
                .members()
                .iter()
                .map(|&id| map_id(r.domain, id))
                .collect::<Vec<u64>>()
        });
        let tree = cluster_tree(&plot, &p.extract);
        let total: usize = domains.iter().map(|d| d.len()).sum();
        let components = ordering
            .reachability
            .iter()
            .filter(|r| r.is_infinite())
            .count();

        let (id_tree, deltas) = diff_trees(
            self.id_tree.as_ref(),
            &tree,
            &plot,
            &mut self.next_cluster_id,
        );
        let old_parents = self
            .id_tree
            .as_ref()
            .map(IdNode::parents)
            .unwrap_or_default();
        let new_parents = id_tree.parents();
        self.id_tree = Some(id_tree);

        let epoch = self.epochs;
        self.epochs += 1;
        self.subs.fanout(epoch, &deltas, |root, delta| {
            in_subtree(root, delta, &old_parents, &new_parents)
        });
        if self.obs.enabled() {
            self.obs.emit_timed(
                EventKind::DeltaEpoch {
                    touched: total as u32,
                    total: total as u32,
                    deltas: deltas.len() as u32,
                },
                &timer,
            );
            let metrics = self.obs.metrics();
            metrics.counter("delta.epochs").inc();
            metrics.counter("delta.rows_touched").add(total as u64);
            metrics.counter("delta.rows_total").add(total as u64);
        }
        // `refs` is indexed by merged position; the artifact keeps it
        // aligned with the ordering instead.
        let refs = ordering.order.iter().map(|&i| refs[i]).collect();
        self.last = Some(EpochArtifacts {
            refs,
            ordering,
            plot,
            tree,
        });

        EpochReport {
            epoch,
            touched: total,
            total,
            deltas,
            tree: TreeDeltaStats {
                reused: 0,
                rebuilt: components,
            },
        }
    }
}

/// Whether `delta`'s subject lies in the subtree rooted at `root`,
/// walking the parent chain of the tree the subject belongs to (the old
/// tree for removals, the new tree otherwise).
fn in_subtree(
    root: ClusterId,
    delta: &ClusterDelta,
    old_parents: &HashMap<ClusterId, Option<ClusterId>>,
    new_parents: &HashMap<ClusterId, Option<ClusterId>>,
) -> bool {
    let parents = match delta {
        ClusterDelta::Absorbed { .. } | ClusterDelta::Retired { .. } => old_parents,
        _ => new_parents,
    };
    let mut at = Some(delta.subject());
    while let Some(id) = at {
        if id == root {
            return true;
        }
        at = parents.get(&id).copied().flatten();
    }
    false
}
