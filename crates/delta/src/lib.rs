//! Delta clustering with typed subscription deltas.
//!
//! The maintainer crates keep the *summarization* incremental: data
//! bubbles absorb inserts and deletes in sub-linear time, so clustering
//! only ever handles the `s` bubbles. Each epoch, a [`DeltaEngine`] runs
//! the from-scratch bubble-level pipeline over them (`optics_merged` →
//! `expand` → `cluster_tree`, `O(s²)` at `s` in the hundreds) and diffs
//! the resulting cluster tree against the previous epoch's. The
//! differential suite in `tests/equivalence.rs` pins the engine's
//! artifacts to the reference pipeline bit for bit across every dynamic
//! scenario, engine, parallelism mode and partition count.
//!
//! On top of each epoch's tree sits a subscription layer: clients
//! register an [`Interest`] (the whole tree, one subtree, or a
//! predicate) and receive typed [`ClusterDelta`]s — [`ClusterDelta::Born`],
//! [`ClusterDelta::Split`], [`ClusterDelta::Absorbed`],
//! [`ClusterDelta::MembershipChanged`], [`ClusterDelta::Retired`] —
//! with **stable cluster ids**: a cluster that persists across epochs
//! keeps its [`ClusterId`] even as its members drift, so downstream
//! consumers can track "their" cluster through churn. Replaying the
//! full delta stream into a [`TreeReplica`] reconstructs the hierarchy
//! exactly (`tests/subscriptions.rs`).
//!
//! Entry points:
//!
//! * [`DeltaEngine::maintainer_epoch`] — one unsharded
//!   [`idb_core::IncrementalBubbles`];
//! * [`router_epoch`] — every partition of an
//!   [`idb_shard::ShardRouter`], merged in partition order,
//!   bit-identical to the router's own cross-partition pass;
//! * [`DeltaEngine::epoch`] — explicit domains, for anything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deltas;
mod engine;
mod sharded;
mod subscribe;

pub use deltas::{ClusterDelta, ClusterId, TreeReplica};
pub use engine::{DeltaEngine, DeltaParams, EpochReport, TreeDeltaStats};
pub use sharded::router_epoch;
pub use subscribe::{Interest, SubscriptionId, VersionedDelta};
