//! Typed cluster deltas and the cross-epoch tree diff that emits them.
//!
//! Every epoch the delta engine extracts the cluster tree and diffs it
//! against the previous epoch's tree to produce a stream of [`ClusterDelta`]s with **stable cluster ids**:
//!
//! * the root always carries id 0, for the lifetime of the engine;
//! * a cluster that persists across epochs keeps its id — "persists" is
//!   decided by *point-overlap voting*: under a matched pair of parents,
//!   each new child is matched to the old child contributing the most of
//!   its points (ties broken toward the smaller old id, then the
//!   leftmost new child), each old child matched at most once;
//! * unmatched new clusters are born with fresh, never-reused ids;
//! * unmatched old clusters are retired — as [`ClusterDelta::Absorbed`]
//!   naming the sibling that received the plurality of their points, or
//!   as [`ClusterDelta::Retired`] when none of their points survive
//!   under the parent.
//!
//! The diff is a pure function of the two trees and their memberships —
//! no hash-map iteration order, no RNG — so the delta stream is as
//! deterministic as the trees themselves. Replaying a recorded stream
//! into a [`TreeReplica`] reconstructs the engine's final `(id → parent,
//! members)` view byte for byte; that equivalence is the subscription
//! suite's core assertion.

use idb_clustering::{ClusterNode, ReachabilityPlot};
use std::collections::{BTreeMap, HashMap};

/// A stable cluster identity, valid across epochs for as long as the
/// cluster persists. Ids are never reused; the root is always `ClusterId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u64);

/// One typed change to the cluster hierarchy, emitted by the epoch diff.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterDelta {
    /// A cluster that did not exist in the previous epoch. Carries its
    /// full (sorted) membership; `parent` is `None` only for the root in
    /// the engine's first epoch.
    Born {
        /// The new cluster's id.
        id: ClusterId,
        /// The parent cluster, already known to subscribers.
        parent: Option<ClusterId>,
        /// Sorted point ids in the cluster's plot region.
        members: Vec<u64>,
    },
    /// A surviving cluster that was a leaf and now has sub-clusters.
    /// Advisory: the children are separately announced as
    /// [`ClusterDelta::Born`] events in the same epoch.
    Split {
        /// The cluster that split.
        id: ClusterId,
        /// Its new sub-clusters, left to right.
        children: Vec<ClusterId>,
    },
    /// A cluster that ended, with the plurality of its points surviving
    /// inside a sibling under the same parent.
    Absorbed {
        /// The ended cluster.
        id: ClusterId,
        /// The cluster that received most of its points.
        into: ClusterId,
    },
    /// A cluster that ended with none of its points surviving under its
    /// parent (e.g. the points were deleted).
    Retired {
        /// The ended cluster.
        id: ClusterId,
    },
    /// A surviving cluster whose membership changed. Carries the full new
    /// (sorted) membership.
    MembershipChanged {
        /// The cluster whose membership changed.
        id: ClusterId,
        /// The new sorted membership.
        members: Vec<u64>,
    },
}

impl ClusterDelta {
    /// The cluster this delta is about.
    #[must_use]
    pub fn subject(&self) -> ClusterId {
        match self {
            ClusterDelta::Born { id, .. }
            | ClusterDelta::Split { id, .. }
            | ClusterDelta::Absorbed { id, .. }
            | ClusterDelta::Retired { id }
            | ClusterDelta::MembershipChanged { id, .. } => *id,
        }
    }
}

/// The identity-carrying mirror of one extracted cluster tree: the same
/// shape as the epoch's [`ClusterNode`] tree, with the stable id and
/// sorted membership of every node.
#[derive(Debug, Clone)]
pub(crate) struct IdNode {
    pub id: ClusterId,
    pub members: Vec<u64>,
    pub children: Vec<IdNode>,
}

impl IdNode {
    /// `(id, parent)` pairs over the whole tree.
    pub fn parents(&self) -> HashMap<ClusterId, Option<ClusterId>> {
        let mut out = HashMap::new();
        self.collect_parents(None, &mut out);
        out
    }

    fn collect_parents(
        &self,
        parent: Option<ClusterId>,
        out: &mut HashMap<ClusterId, Option<ClusterId>>,
    ) {
        out.insert(self.id, parent);
        for c in &self.children {
            c.collect_parents(Some(self.id), out);
        }
    }

    /// The canonical `(id, parent, members)` view, sorted by id — the
    /// representation [`TreeReplica::snapshot`] reconstructs.
    pub fn canonical(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        let mut out = Vec::new();
        self.collect_canonical(None, &mut out);
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    fn collect_canonical(
        &self,
        parent: Option<ClusterId>,
        out: &mut Vec<(ClusterId, Option<ClusterId>, Vec<u64>)>,
    ) {
        out.push((self.id, parent, self.members.clone()));
        for c in &self.children {
            c.collect_canonical(Some(self.id), out);
        }
    }
}

/// Sorted point ids of the plot region `[start, end)`.
fn region_members(plot: &ReachabilityPlot, range: (usize, usize)) -> Vec<u64> {
    let mut ids: Vec<u64> = plot.entries()[range.0..range.1]
        .iter()
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// The four delta buckets of one epoch, concatenated in emission order:
/// removals (old-tree postorder) → splits → births (new-tree preorder) →
/// membership changes.
#[derive(Debug, Default)]
struct DiffOut {
    removals: Vec<ClusterDelta>,
    splits: Vec<ClusterDelta>,
    born: Vec<ClusterDelta>,
    membership: Vec<ClusterDelta>,
}

/// Diffs the previous epoch's identity tree against the freshly extracted
/// tree. Returns the new identity tree and the epoch's delta stream.
pub(crate) fn diff_trees(
    prev: Option<&IdNode>,
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
) -> (IdNode, Vec<ClusterDelta>) {
    let mut out = DiffOut::default();
    let root = match prev {
        None => build_fresh(tree, plot, None, next_id, &mut out),
        Some(old) => diff_node(old, tree, plot, next_id, &mut out),
    };
    let mut deltas = out.removals;
    deltas.extend(out.splits);
    deltas.extend(out.born);
    deltas.extend(out.membership);
    (root, deltas)
}

/// Assigns fresh ids to a subtree with no previous-epoch counterpart,
/// emitting `Born` in preorder (parents before children).
fn build_fresh(
    tree: &ClusterNode,
    plot: &ReachabilityPlot,
    parent: Option<ClusterId>,
    next_id: &mut u64,
    out: &mut DiffOut,
) -> IdNode {
    let id = ClusterId(*next_id);
    *next_id += 1;
    let members = region_members(plot, tree.range);
    out.born.push(ClusterDelta::Born {
        id,
        parent,
        members: members.clone(),
    });
    let children = tree
        .children
        .iter()
        .map(|c| build_fresh(c, plot, Some(id), next_id, out))
        .collect();
    IdNode {
        id,
        members,
        children,
    }
}

/// Diffs one matched `(old, new)` pair: carries the old id over, matches
/// the children by point-overlap voting, recurses into matched pairs,
/// births unmatched new children and retires unmatched old ones.
fn diff_node(
    old: &IdNode,
    new: &ClusterNode,
    plot: &ReachabilityPlot,
    next_id: &mut u64,
    out: &mut DiffOut,
) -> IdNode {
    let members = region_members(plot, new.range);
    if members != old.members {
        out.membership.push(ClusterDelta::MembershipChanged {
            id: old.id,
            members: members.clone(),
        });
    }

    // Which old child owns each point (children have disjoint regions, so
    // each point has at most one owner). Lookup only — never iterated.
    let mut point_owner: HashMap<u64, usize> = HashMap::new();
    for (ocp, oc) in old.children.iter().enumerate() {
        for &p in &oc.members {
            point_owner.insert(p, ocp);
        }
    }
    let new_members: Vec<Vec<u64>> = new
        .children
        .iter()
        .map(|c| region_members(plot, c.range))
        .collect();

    // Vote: candidate (overlap, old child, new child) triples, strongest
    // first; ties toward the smaller (older) id, then the leftmost new
    // child. Greedy one-to-one assignment.
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (ncp, nm) in new_members.iter().enumerate() {
        let mut votes = vec![0usize; old.children.len()];
        for p in nm {
            if let Some(&ocp) = point_owner.get(p) {
                votes[ocp] += 1;
            }
        }
        for (ocp, &v) in votes.iter().enumerate() {
            if v > 0 {
                candidates.push((v, ocp, ncp));
            }
        }
    }
    candidates.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(old.children[a.1].id.cmp(&old.children[b.1].id))
            .then(a.2.cmp(&b.2))
    });
    let mut old_match: Vec<Option<usize>> = vec![None; old.children.len()]; // ocp -> ncp
    let mut new_match: Vec<Option<usize>> = vec![None; new.children.len()]; // ncp -> ocp
    for (_, ocp, ncp) in candidates {
        if old_match[ocp].is_none() && new_match[ncp].is_none() {
            old_match[ocp] = Some(ncp);
            new_match[ncp] = Some(ocp);
        }
    }

    // Build the new children left to right: matched pairs recurse, the
    // rest are born fresh.
    let id_children: Vec<IdNode> = new
        .children
        .iter()
        .enumerate()
        .map(|(ncp, nc)| match new_match[ncp] {
            Some(ocp) => diff_node(&old.children[ocp], nc, plot, next_id, out),
            None => build_fresh(nc, plot, Some(old.id), next_id, out),
        })
        .collect();

    // Retire unmatched old children (whole subtrees, postorder) now that
    // every surviving new child id is known.
    let mut point_dest: HashMap<u64, ClusterId> = HashMap::new();
    for (nm, idc) in new_members.iter().zip(&id_children) {
        for &p in nm {
            point_dest.insert(p, idc.id);
        }
    }
    for (ocp, oc) in old.children.iter().enumerate() {
        if old_match[ocp].is_none() {
            retire_subtree(oc, &point_dest, out);
        }
    }

    // A leaf that grew children split.
    if old.children.is_empty() && !id_children.is_empty() {
        out.splits.push(ClusterDelta::Split {
            id: old.id,
            children: id_children.iter().map(|c| c.id).collect(),
        });
    }

    IdNode {
        id: old.id,
        members,
        children: id_children,
    }
}

/// Emits `Absorbed`/`Retired` for a dead old subtree, children first.
/// `point_dest` maps surviving points to the new child now holding them;
/// a dead cluster is absorbed into the destination of the plurality of
/// its points (ties toward the smaller id), or retired when none survive.
fn retire_subtree(node: &IdNode, point_dest: &HashMap<u64, ClusterId>, out: &mut DiffOut) {
    for c in &node.children {
        retire_subtree(c, point_dest, out);
    }
    let mut counts: BTreeMap<ClusterId, usize> = BTreeMap::new();
    for p in &node.members {
        if let Some(&dest) = point_dest.get(p) {
            *counts.entry(dest).or_default() += 1;
        }
    }
    // BTreeMap iterates in ascending id order, so `max_by_key` on the
    // count alone already breaks ties toward the smaller id (strictly
    // greater counts are required to displace an earlier entry).
    let best = counts
        .iter()
        .fold(None::<(ClusterId, usize)>, |acc, (&id, &n)| match acc {
            Some((_, m)) if m >= n => acc,
            _ => Some((id, n)),
        });
    out.removals.push(match best {
        Some((into, _)) => ClusterDelta::Absorbed { id: node.id, into },
        None => ClusterDelta::Retired { id: node.id },
    });
}

/// A client-side mirror of the cluster hierarchy, driven purely by the
/// delta stream. Applying every delta of every epoch, in order, to an
/// empty replica reconstructs the engine's canonical `(id → parent,
/// members)` view exactly — the replayability contract of the
/// subscription API.
#[derive(Debug, Clone, Default)]
pub struct TreeReplica {
    nodes: BTreeMap<ClusterId, (Option<ClusterId>, Vec<u64>)>,
}

impl TreeReplica {
    /// An empty replica.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one delta.
    pub fn apply(&mut self, delta: &ClusterDelta) {
        match delta {
            ClusterDelta::Born {
                id,
                parent,
                members,
            } => {
                self.nodes.insert(*id, (*parent, members.clone()));
            }
            ClusterDelta::Absorbed { id, .. } | ClusterDelta::Retired { id } => {
                self.nodes.remove(id);
            }
            ClusterDelta::MembershipChanged { id, members } => {
                if let Some((_, m)) = self.nodes.get_mut(id) {
                    *m = members.clone();
                }
            }
            ClusterDelta::Split { .. } => {} // Advisory; births carry the state.
        }
    }

    /// Live clusters as `(id, parent, members)`, sorted by id — directly
    /// comparable to the engine's canonical view.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(ClusterId, Option<ClusterId>, Vec<u64>)> {
        self.nodes
            .iter()
            .map(|(&id, (parent, members))| (id, *parent, members.clone()))
            .collect()
    }

    /// Number of live clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no cluster is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plot_of(reach: &[f64]) -> ReachabilityPlot {
        let mut p = ReachabilityPlot::new();
        for (i, &r) in reach.iter().enumerate() {
            p.push(i as u64, r);
        }
        p
    }

    fn leaf(range: (usize, usize)) -> ClusterNode {
        ClusterNode {
            range,
            split_value: None,
            children: Vec::new(),
        }
    }

    fn node(range: (usize, usize), children: Vec<ClusterNode>) -> ClusterNode {
        ClusterNode {
            range,
            split_value: None,
            children,
        }
    }

    #[test]
    fn first_epoch_births_everything_in_preorder() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (id_tree, deltas) = diff_trees(None, &tree, &plot, &mut next);
        assert_eq!(id_tree.id, ClusterId(0));
        assert_eq!(
            deltas.iter().map(ClusterDelta::subject).collect::<Vec<_>>(),
            vec![ClusterId(0), ClusterId(1), ClusterId(2)]
        );
        assert!(deltas
            .iter()
            .all(|d| matches!(d, ClusterDelta::Born { .. })));
        let mut replica = TreeReplica::new();
        for d in &deltas {
            replica.apply(d);
        }
        assert_eq!(replica.snapshot(), id_tree.canonical());
    }

    #[test]
    fn stable_ids_survive_an_unchanged_epoch() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, born) = diff_trees(None, &tree, &plot, &mut next);
        assert_eq!(born.len(), 3);
        let (second, deltas) = diff_trees(Some(&first), &tree, &plot, &mut next);
        assert!(deltas.is_empty(), "{deltas:?}");
        assert_eq!(second.canonical(), first.canonical());
    }

    #[test]
    fn a_split_leaf_reports_split_and_births() {
        let plot = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let flat = node((0, 6), vec![]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &flat, &plot, &mut next);
        let split = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &split, &plot, &mut next);
        assert_eq!(second.id, ClusterId(0));
        let kinds: Vec<&ClusterDelta> = deltas.iter().collect();
        assert!(matches!(
            kinds[0],
            ClusterDelta::Split { id: ClusterId(0), children } if children.len() == 2
        ));
        assert!(matches!(kinds[1], ClusterDelta::Born { .. }));
        assert!(matches!(kinds[2], ClusterDelta::Born { .. }));
    }

    #[test]
    fn overlap_voting_keeps_ids_under_membership_drift() {
        // Two leaves; epoch 2 moves one point between them and keeps both.
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // Same ids, boundary shifted: point 3 now in the left region.
        let tree2 = node((0, 6), vec![leaf((0, 4)), leaf((4, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &tree2, &plot1, &mut next);
        assert_eq!(second.children[0].id, first.children[0].id);
        assert_eq!(second.children[1].id, first.children[1].id);
        // Only membership changes, no births or removals.
        assert!(deltas
            .iter()
            .all(|d| matches!(d, ClusterDelta::MembershipChanged { .. })));
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn a_vanished_cluster_is_absorbed_into_the_survivor() {
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // The right cluster's region merges into the left: one child
        // covering everything. Its points survive inside the survivor.
        let tree2 = node((0, 6), vec![leaf((0, 6))]);
        let (second, deltas) = diff_trees(Some(&first), &tree2, &plot1, &mut next);
        let survivor = second.children[0].id;
        assert_eq!(
            survivor, first.children[0].id,
            "plurality keeps the left id"
        );
        assert!(deltas.iter().any(|d| matches!(
            d,
            ClusterDelta::Absorbed { id, into } if *id == first.children[1].id && *into == survivor
        )));
    }

    #[test]
    fn a_cluster_of_deleted_points_is_retired() {
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 5.0, 1.0, 1.0]);
        let tree1 = node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]);
        let mut next = 0;
        let (first, _) = diff_trees(None, &tree1, &plot1, &mut next);

        // Points 3..6 are gone entirely.
        let plot2 = plot_of(&[f64::INFINITY, 1.0, 1.0]);
        let tree2 = node((0, 3), vec![leaf((0, 3))]);
        let (_, deltas) = diff_trees(Some(&first), &tree2, &plot2, &mut next);
        assert!(deltas
            .iter()
            .any(|d| matches!(d, ClusterDelta::Retired { id } if *id == first.children[1].id)));
    }

    #[test]
    fn replay_reconstructs_across_structural_epochs() {
        let mut next = 0;
        let mut replica = TreeReplica::new();
        let plot1 = plot_of(&[f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let (mut id_tree, deltas) = diff_trees(None, &node((0, 6), vec![]), &plot1, &mut next);
        for d in &deltas {
            replica.apply(d);
        }

        let epochs: Vec<(ReachabilityPlot, ClusterNode)> = vec![
            (
                plot1.clone(),
                node((0, 6), vec![leaf((0, 3)), leaf((3, 6))]),
            ),
            (
                plot1.clone(),
                node(
                    (0, 6),
                    vec![node((0, 3), vec![leaf((0, 1)), leaf((1, 3))]), leaf((3, 6))],
                ),
            ),
            (
                plot_of(&[f64::INFINITY, 1.0, 1.0]),
                node((0, 3), vec![leaf((0, 3))]),
            ),
        ];
        for (plot, tree) in &epochs {
            let (nt, deltas) = diff_trees(Some(&id_tree), tree, plot, &mut next);
            for d in &deltas {
                replica.apply(d);
            }
            id_tree = nt;
            assert_eq!(replica.snapshot(), id_tree.canonical());
        }
    }
}
