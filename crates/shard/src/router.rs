//! The shard router: V fault-isolated maintainer partitions behind N
//! bounded queues, with supervised quarantine and per-partition restart.
//!
//! # Determinism model
//!
//! Every piece of *state* lives in a partition: its own
//! [`DurableMaintainer`] (store, summarization, WAL epoch, checkpoint
//! cadence), its own maintenance RNG (seeded by
//! [`partition_round_seed`]), its own [`SearchStats`] and its own tagged
//! [`Obs`] handle. Shards own no state at all — a shard is a bounded
//! queue plus a drain loop over a contiguous partition range. Routing
//! ([`route_point`]) and the per-partition FIFO order are pure functions
//! of the submitted batches, so the shard count — like the thread count
//! in the rest of the codebase — can change wall-clock behavior only,
//! never an output bit. A one-partition router is the unsharded
//! [`DurableMaintainer`] verbatim: same batches, same round seeds, same
//! ids.
//!
//! # Failure model
//!
//! * **Backpressure**: a submission that would overflow any target
//!   shard's queue is shed whole with
//!   [`ShardError::QueueFull`] — nothing is enqueued, nothing is
//!   silently dropped.
//! * **Quarantine**: [`ShardRouter::poll_health`] counts consecutive
//!   degraded polls per partition; past the threshold the partition is
//!   quarantined — submissions touching it shed with
//!   [`ShardError::Unavailable`] while siblings keep serving — and each
//!   subsequent poll attempts a heal (`sync`). Enough healthy polls
//!   release it.
//! * **Crash**: [`ShardRouter::kill_partition`] drops a partition's
//!   in-memory state (keeping the durable media);
//!   [`ShardRouter::restart_partition`] rebuilds it through the ordinary
//!   [`recover_with_obs`] path. Sibling partitions never block.

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::route::{partition_round_seed, route_point, GlobalId};
use idb_clustering::merged::{optics_merged, MergedRef};
use idb_clustering::optics_bubbles::BubbleOrdering;
use idb_core::{
    recover_with_obs, Bubble, CheckpointStore, DurabilityConfig, DurableMaintainer, Health,
    IncrementalBubbles, MaintainerConfig,
};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::{EventKind, Obs};
use idb_store::{Batch, DurableSink, PointId, PointStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};

/// One partition: all the state the service holds for its region of
/// point space.
#[derive(Debug)]
struct PartitionSlot<S: DurableSink, C: CheckpointStore> {
    /// `None` while crashed (between kill and restart).
    maintainer: Option<DurableMaintainer<S, C>>,
    /// The maintenance round-seed stream; service-layer state, so it
    /// survives a maintainer restart (replay re-uses WAL-logged seeds
    /// and never re-draws).
    rng: StdRng,
    search: SearchStats,
    obs: Obs,
    quarantined: bool,
    consec_degraded: u32,
    consec_healthy: u32,
}

/// One queued sub-batch: a ticket's slice of work for one partition.
#[derive(Debug)]
struct QueueEntry {
    ticket: u64,
    partition: u32,
    /// Deletes as partition-local ids; inserts the routed subset.
    sub: Batch,
    /// For each insert in `sub`, its position in the client batch.
    insert_positions: Vec<u32>,
}

/// Accumulates a ticket's result while its entries drain.
#[derive(Debug)]
struct PendingTicket {
    /// Client ids in client insert order; `PointId(u32::MAX)` until the
    /// owning partition's entry applies.
    ids: Vec<PointId>,
    error: Option<ShardError>,
}

/// Supervisor view of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStatus {
    /// Serving, durable media accepting writes.
    Healthy,
    /// Serving from memory; WAL records buffered.
    Degraded {
        /// Buffered (non-durable) WAL records.
        buffered_batches: usize,
        /// Batches shed by the bounded durability layer this epoch.
        shed_batches: u64,
    },
    /// Shedding submissions while the supervisor waits for a heal.
    Quarantined,
    /// Crashed: killed and not yet restarted.
    Offline,
}

/// What a partition restart replayed, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartReport {
    /// WAL records replayed on top of the adopted checkpoint.
    pub replayed: usize,
    /// Durable batches after recovery.
    pub batches_durable: u64,
    /// Whether a torn final WAL record was discarded.
    pub torn_tail: bool,
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
}

/// Result of one drained ticket: client ids for its inserts (in client
/// batch order) or the first typed failure among its sub-batches.
pub type TicketResult = (u64, Result<Vec<PointId>, ShardError>);

/// One shard's drain work: its first partition index, its FIFO, and its
/// contiguous slice of partition slots (carved with `split_at_mut` so a
/// worker thread owns each partition exclusively).
type ShardWork<'a, S, C> = (usize, VecDeque<QueueEntry>, &'a mut [PartitionSlot<S, C>]);

/// V fault-isolated maintainer partitions behind N bounded shard queues.
#[derive(Debug)]
pub struct ShardRouter<S: DurableSink, C: CheckpointStore> {
    dim: usize,
    scfg: ShardConfig,
    dcfg: DurabilityConfig,
    slots: Vec<PartitionSlot<S, C>>,
    /// One bounded FIFO per shard.
    queues: Vec<VecDeque<QueueEntry>>,
    pending: BTreeMap<u64, PendingTicket>,
    next_ticket: u64,
}

impl<S: DurableSink, C: CheckpointStore> ShardRouter<S, C> {
    /// Builds the service over an insert-only initial batch: points are
    /// routed to their partitions, each partition builds its own
    /// summarization (drawing from its [`partition_round_seed`]-derived
    /// RNG) and starts durable operation on the media `media(partition)`
    /// hands it. Returns the router plus the client ids of the initial
    /// inserts, in batch order.
    ///
    /// `obs` is the root observability handle; partition `p` journals
    /// through `obs.tagged(p)`.
    ///
    /// # Errors
    /// [`ShardError::Recovery`] when a partition cannot start durable
    /// operation (initial WAL header or baseline checkpoint failed).
    ///
    /// # Panics
    /// Panics if `initial` contains deletes, or a partition receives
    /// fewer points than `mconfig.num_bubbles` (as
    /// [`IncrementalBubbles::build`] does).
    #[allow(clippy::too_many_arguments)] // a constructor: each argument is one layer's config
    pub fn create(
        dim: usize,
        initial: &Batch,
        mconfig: &MaintainerConfig,
        scfg: ShardConfig,
        dcfg: DurabilityConfig,
        seed: u64,
        obs: &Obs,
        mut media: impl FnMut(u32) -> (S, C),
    ) -> Result<(Self, Vec<PointId>), ShardError> {
        assert!(
            initial.deletes.is_empty(),
            "the initial batch must be insert-only"
        );
        let mut dcfg = dcfg;
        if let Some(budget) = scfg.disk_budget {
            // Each partition owns a full copy of the durability config, so
            // the budget is enforced per partition.
            dcfg.disk_budget = budget;
        }
        if let Some(hot) = scfg.hot_points {
            // Same per-partition ownership for the hot-point budget: every
            // partition hangs its own cold tier off its own store.
            dcfg.hot_points = hot;
        }
        let partitions = scfg.partitions;
        // Route the initial population.
        let mut stores: Vec<PointStore> = (0..partitions).map(|_| PointStore::new(dim)).collect();
        let mut client_ids = Vec::with_capacity(initial.inserts.len());
        for (coords, label) in &initial.inserts {
            let p = route_point(coords, partitions);
            let local = stores[p as usize].insert(coords, *label);
            client_ids.push(
                GlobalId {
                    partition: p,
                    local,
                }
                .client_id(),
            );
        }

        // Build and start each partition.
        let mut slots = Vec::with_capacity(partitions as usize);
        for (p, store) in stores.into_iter().enumerate() {
            let p = p as u32;
            let mut rng = StdRng::seed_from_u64(partition_round_seed(seed, p));
            let mut search = SearchStats::new();
            let tagged = obs.tagged(p);
            let mut bubbles =
                IncrementalBubbles::build(&store, mconfig.clone(), &mut rng, &mut search);
            bubbles.set_obs(tagged.clone());
            let (sink, checkpoints) = media(p);
            let maintainer =
                DurableMaintainer::adopt(store, bubbles, dcfg.clone(), sink, checkpoints).map_err(
                    |source| ShardError::Recovery {
                        partition: p,
                        source,
                    },
                )?;
            slots.push(PartitionSlot {
                maintainer: Some(maintainer),
                rng,
                search,
                obs: tagged,
                quarantined: false,
                consec_degraded: 0,
                consec_healthy: 0,
            });
        }
        let queues = (0..scfg.shards).map(|_| VecDeque::new()).collect();
        Ok((
            Self {
                dim,
                scfg,
                dcfg,
                slots,
                queues,
                pending: BTreeMap::new(),
                next_ticket: 0,
            },
            client_ids,
        ))
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ShardConfig {
        &self.scfg
    }

    /// Dimensionality of the point space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Live points across all online partitions.
    #[must_use]
    pub fn total_points(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.maintainer.as_ref())
            .map(|m| m.store().len() as u64)
            .sum()
    }

    /// Entries currently queued on `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn queue_depth(&self, shard: u32) -> usize {
        self.queues[shard as usize].len()
    }

    /// A partition's maintainer, `None` while crashed.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn maintainer(&self, partition: u32) -> Option<&DurableMaintainer<S, C>> {
        self.slots[partition as usize].maintainer.as_ref()
    }

    /// Mutable maintainer access — the fault-injection surface (e.g.
    /// reaching a `FaultSink` through `wal_sink_mut`).
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn maintainer_mut(&mut self, partition: u32) -> Option<&mut DurableMaintainer<S, C>> {
        self.slots[partition as usize].maintainer.as_mut()
    }

    /// A partition's live bubble set, `None` while crashed.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn partition_bubbles(&self, partition: u32) -> Option<&[Bubble]> {
        self.maintainer(partition).map(|m| m.bubbles().bubbles())
    }

    /// Routes and enqueues one client batch, returning its ticket.
    /// Sheds whole — nothing is enqueued — on any typed failure.
    ///
    /// # Errors
    /// * [`ShardError::UnknownId`] — a delete's partition field names no
    ///   partition;
    /// * [`ShardError::Unavailable`] — a touched partition is
    ///   quarantined or offline;
    /// * [`ShardError::QueueFull`] — a target shard's queue cannot take
    ///   the new entries.
    pub fn submit(&mut self, batch: &Batch) -> Result<u64, ShardError> {
        let partitions = self.scfg.partitions;
        // Split into per-partition sub-batches (BTreeMap: partition
        // order is deterministic).
        let mut subs: BTreeMap<u32, (Batch, Vec<u32>)> = BTreeMap::new();
        for &id in &batch.deletes {
            let g = GlobalId::from_client(id, partitions).ok_or(ShardError::UnknownId { id })?;
            subs.entry(g.partition).or_default().0.deletes.push(g.local);
        }
        for (pos, (coords, label)) in batch.inserts.iter().enumerate() {
            let p = route_point(coords, partitions);
            let entry = subs.entry(p).or_default();
            entry.0.inserts.push((coords.clone(), *label));
            entry.1.push(pos as u32);
        }

        // Availability: shed before touching any queue.
        for &p in subs.keys() {
            let slot = &self.slots[p as usize];
            if slot.quarantined || slot.maintainer.is_none() {
                return Err(ShardError::Unavailable { partition: p });
            }
        }
        // Id-space capacity: an insert that would grow a partition's
        // store past the packed-id local field is rejected typed up
        // front (the 24-bit ceiling used to overflow silently into the
        // partition bits).
        for (&p, (sub, _)) in &subs {
            if sub.inserts.is_empty() {
                continue;
            }
            let Some(m) = self.slots[p as usize].maintainer.as_ref() else {
                continue; // unreachable: availability checked above
            };
            let store = m.store();
            let free = store.slots() - store.len();
            if crate::local_capacity_exceeded(
                store.slots(),
                free,
                sub.deletes.len(),
                sub.inserts.len(),
            ) {
                return Err(ShardError::Capacity {
                    partition: p,
                    limit: crate::MAX_LOCAL,
                });
            }
        }
        // Backpressure: all target queues must have room for all new
        // entries, or the submission sheds whole.
        let mut extra: BTreeMap<u32, usize> = BTreeMap::new();
        for &p in subs.keys() {
            *extra.entry(self.scfg.shard_of(p)).or_default() += 1;
        }
        for (&shard, &add) in &extra {
            if self.queues[shard as usize].len() + add > self.scfg.queue_capacity {
                return Err(ShardError::QueueFull {
                    shard,
                    capacity: self.scfg.queue_capacity,
                });
            }
        }

        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.insert(
            ticket,
            PendingTicket {
                ids: vec![PointId(u32::MAX); batch.inserts.len()],
                error: None,
            },
        );
        for (partition, (sub, insert_positions)) in subs {
            self.queues[self.scfg.shard_of(partition) as usize].push_back(QueueEntry {
                ticket,
                partition,
                sub,
                insert_positions,
            });
        }
        Ok(ticket)
    }

    /// Applies one queue entry to its partition and records the outcome
    /// on the pending ticket.
    fn apply_entry(
        slot: &mut PartitionSlot<S, C>,
        entry: QueueEntry,
        pending: &mut BTreeMap<u64, PendingTicket>,
    ) {
        let ticket = pending
            .get_mut(&entry.ticket)
            .expect("queued entry without a pending ticket");
        let Some(maintainer) = slot.maintainer.as_mut() else {
            // Crashed between submit and drain.
            ticket.error.get_or_insert(ShardError::Unavailable {
                partition: entry.partition,
            });
            return;
        };
        match maintainer.apply(&entry.sub, &mut slot.rng, &mut slot.search) {
            Ok(locals) => {
                for (&pos, &local) in entry.insert_positions.iter().zip(&locals) {
                    ticket.ids[pos as usize] = GlobalId {
                        partition: entry.partition,
                        local,
                    }
                    .client_id();
                }
            }
            Err(source) => {
                ticket.error.get_or_insert(ShardError::Rejected {
                    partition: entry.partition,
                    source,
                });
            }
        }
    }

    /// Drains every shard queue serially (shard 0 first) and returns the
    /// completed tickets in submission order.
    pub fn drain(&mut self) -> Vec<TicketResult> {
        for queue in &mut self.queues {
            while let Some(entry) = queue.pop_front() {
                Self::apply_entry(
                    &mut self.slots[entry.partition as usize],
                    entry,
                    &mut self.pending,
                );
            }
        }
        self.take_completed()
    }

    fn take_completed(&mut self) -> Vec<TicketResult> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(ticket, p)| {
                let result = match p.error {
                    Some(e) => Err(e),
                    None => Ok(p.ids),
                };
                (ticket, result)
            })
            .collect()
    }

    /// Submits one batch and drains immediately — the synchronous
    /// convenience path. Returns the client ids of the batch's inserts,
    /// in batch order.
    ///
    /// # Errors
    /// As [`ShardRouter::submit`] and the per-partition
    /// [`ShardError::Rejected`] / [`ShardError::Unavailable`] outcomes
    /// of the drain.
    pub fn apply(&mut self, batch: &Batch) -> Result<Vec<PointId>, ShardError> {
        let ticket = self.submit(batch)?;
        let mut results = self.drain();
        let at = results
            .iter()
            .position(|(t, _)| *t == ticket)
            .expect("drained ticket must be present");
        results.swap_remove(at).1
    }

    /// Supervisor poll: reads every partition's health, advances the
    /// quarantine state machine, attempts heals on quarantined
    /// partitions, and returns the per-partition statuses.
    ///
    /// Transitions journal an [`EventKind::Quarantine`] event through
    /// the partition's tagged handle.
    pub fn poll_health(&mut self) -> Vec<PartitionStatus> {
        let (quarantine_after, heal_after) = (self.scfg.quarantine_after, self.scfg.heal_after);
        self.slots
            .iter_mut()
            .map(|slot| {
                let Some(maintainer) = slot.maintainer.as_mut() else {
                    return PartitionStatus::Offline;
                };
                // A quarantined partition gets an active heal attempt;
                // a serving one is only observed.
                let health = if slot.quarantined {
                    maintainer.sync()
                } else {
                    maintainer.health()
                };
                match health {
                    Health::Degraded {
                        buffered_batches,
                        shed_batches,
                    } => {
                        slot.consec_healthy = 0;
                        slot.consec_degraded += 1;
                        if !slot.quarantined && slot.consec_degraded >= quarantine_after {
                            slot.quarantined = true;
                            slot.obs.emit(EventKind::Quarantine { entered: true }, 0);
                        }
                        if slot.quarantined {
                            PartitionStatus::Quarantined
                        } else {
                            PartitionStatus::Degraded {
                                buffered_batches,
                                shed_batches,
                            }
                        }
                    }
                    Health::Healthy => {
                        slot.consec_degraded = 0;
                        if slot.quarantined {
                            slot.consec_healthy += 1;
                            if slot.consec_healthy >= heal_after {
                                slot.quarantined = false;
                                slot.consec_healthy = 0;
                                slot.obs.emit(EventKind::Quarantine { entered: false }, 0);
                                PartitionStatus::Healthy
                            } else {
                                PartitionStatus::Quarantined
                            }
                        } else {
                            PartitionStatus::Healthy
                        }
                    }
                }
            })
            .collect()
    }

    /// Current status of one partition without advancing the supervisor.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn status(&self, partition: u32) -> PartitionStatus {
        let slot = &self.slots[partition as usize];
        match slot.maintainer.as_ref() {
            None => PartitionStatus::Offline,
            Some(_) if slot.quarantined => PartitionStatus::Quarantined,
            Some(m) => match m.health() {
                Health::Healthy => PartitionStatus::Healthy,
                Health::Degraded {
                    buffered_batches,
                    shed_batches,
                } => PartitionStatus::Degraded {
                    buffered_batches,
                    shed_batches,
                },
            },
        }
    }

    /// Flushes every online partition's buffered WAL records and returns
    /// the resulting healths (partition order; offline partitions are
    /// skipped).
    pub fn sync_all(&mut self) -> Vec<Health> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.maintainer.as_mut().map(DurableMaintainer::sync))
            .collect()
    }

    /// Turns structural change tracking on or off on every *online*
    /// partition (see [`DurableMaintainer::set_change_tracking`]). An
    /// output channel for change-log consumers; never journaled, never
    /// persisted — a partition restarted through
    /// [`ShardRouter::restart_partition`] comes back with tracking off,
    /// which a consumer must treat as "everything changed".
    pub fn set_change_tracking(&mut self, on: bool) {
        for slot in &mut self.slots {
            if let Some(m) = slot.maintainer.as_mut() {
                m.set_change_tracking(on);
            }
        }
    }

    /// Simulates a partition crash: drops its in-memory state and hands
    /// back the durable media (sink and checkpoint store) for
    /// [`ShardRouter::restart_partition`]. Returns `None` if the
    /// partition is already offline. Queued work for the partition stays
    /// queued; it fails typed at the next drain and the submission can
    /// be retried after restart.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    pub fn kill_partition(&mut self, partition: u32) -> Option<(S, C)> {
        let slot = &mut self.slots[partition as usize];
        let maintainer = slot.maintainer.take()?;
        slot.quarantined = false;
        slot.consec_degraded = 0;
        slot.consec_healthy = 0;
        let (_store, _bubbles, sink, checkpoints) = maintainer.into_parts();
        Some((sink, checkpoints))
    }

    /// Restarts a crashed partition through the ordinary recovery path:
    /// the newest usable checkpoint in `checkpoints` plus the WAL tail
    /// in `wal_bytes` rebuild the exact durable state, and the partition
    /// resumes a fresh WAL epoch on `sink`. Sibling partitions are
    /// untouched throughout.
    ///
    /// # Errors
    /// [`ShardError::Recovery`] when recovery or resume fails; the
    /// partition stays offline.
    ///
    /// # Panics
    /// Panics if `partition` is out of range or is still online.
    pub fn restart_partition(
        &mut self,
        partition: u32,
        wal_bytes: &[u8],
        sink: S,
        checkpoints: C,
    ) -> Result<RestartReport, ShardError> {
        let slot = &mut self.slots[partition as usize];
        assert!(
            slot.maintainer.is_none(),
            "partition {partition} is still online"
        );
        let recovered = recover_with_obs(wal_bytes, &checkpoints, &slot.obs)
            .map_err(|source| ShardError::Recovery { partition, source })?;
        let report = RestartReport {
            replayed: recovered.replayed,
            batches_durable: recovered.batches_durable,
            torn_tail: recovered.torn_tail,
            checkpoint_seq: recovered.checkpoint_seq,
        };
        let maintainer = DurableMaintainer::resume(recovered, self.dcfg.clone(), sink, checkpoints)
            .map_err(|source| ShardError::Recovery { partition, source })?;
        slot.maintainer = Some(maintainer);
        Ok(report)
    }

    /// One clustering pass over the union of every partition's bubbles
    /// (partition-major merge — a pure function of partition contents,
    /// independent of the shard grouping). Quarantined partitions still
    /// serve their bubbles; an offline partition fails the pass typed.
    ///
    /// # Errors
    /// [`ShardError::Unavailable`] naming the first offline partition.
    ///
    /// # Panics
    /// Panics if `min_pts == 0`.
    pub fn cluster(
        &self,
        eps: f64,
        min_pts: usize,
        par: Parallelism,
    ) -> Result<(Vec<MergedRef>, BubbleOrdering), ShardError> {
        let mut domains: Vec<&[Bubble]> = Vec::with_capacity(self.slots.len());
        for (p, slot) in self.slots.iter().enumerate() {
            let maintainer = slot.maintainer.as_ref().ok_or(ShardError::Unavailable {
                partition: p as u32,
            })?;
            domains.push(maintainer.bubbles().bubbles());
        }
        Ok(optics_merged(&domains, eps, min_pts, par))
    }
}

impl<S: DurableSink + Send, C: CheckpointStore + Send> ShardRouter<S, C> {
    /// [`ShardRouter::drain`] with the shard loops fanned out over
    /// worker threads (shard `s` on worker `s % threads`). Each shard's
    /// FIFO and each partition's state are owned by exactly one worker,
    /// so the outputs are bit-identical to the serial drain — the mode
    /// only changes wall-clock time, exactly like `Parallelism`
    /// elsewhere.
    pub fn drain_with(&mut self, par: Parallelism) -> Vec<TicketResult> {
        let threads = par.effective_threads().min(self.queues.len().max(1));
        if threads <= 1 {
            return self.drain();
        }

        // Carve the slot vector into per-shard contiguous slices.
        let shards = self.scfg.shards;
        let bounds: Vec<usize> = (0..shards)
            .map(|s| {
                // First partition owned by shard `s`: smallest p with
                // p*shards/partitions == s  ⇒  ceil(s*partitions/shards).
                (u64::from(s) * u64::from(self.scfg.partitions)).div_ceil(u64::from(shards))
                    as usize
            })
            .chain(std::iter::once(self.scfg.partitions as usize))
            .collect();
        let queues = std::mem::take(&mut self.queues);
        let mut work: Vec<ShardWork<'_, S, C>> = Vec::with_capacity(shards as usize);
        let mut rest: &mut [PartitionSlot<S, C>] = &mut self.slots;
        let mut consumed = 0usize;
        for (s, queue) in queues.into_iter().enumerate() {
            let end = bounds[s + 1];
            let (own, tail) = rest.split_at_mut(end - consumed);
            consumed = end;
            rest = tail;
            work.push((bounds[s], queue, own));
        }

        // Outcomes per shard, merged deterministically afterwards.
        type Outcome = (u64, u32, Vec<u32>, Result<Vec<PointId>, ShardError>);
        let mut buckets: Vec<Vec<(usize, Vec<Outcome>)>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            let mut lanes: Vec<Vec<ShardWork<'_, S, C>>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (s, item) in work.into_iter().enumerate() {
                lanes[s % threads].push(item);
            }
            for (lane_at, lane) in lanes.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let mut out: Vec<(usize, Vec<Outcome>)> = Vec::new();
                    for (start, mut queue, slots) in lane {
                        let mut shard_out: Vec<Outcome> = Vec::new();
                        while let Some(entry) = queue.pop_front() {
                            let slot = &mut slots[entry.partition as usize - start];
                            let result = match slot.maintainer.as_mut() {
                                None => Err(ShardError::Unavailable {
                                    partition: entry.partition,
                                }),
                                Some(m) => m
                                    .apply(&entry.sub, &mut slot.rng, &mut slot.search)
                                    .map_err(|source| ShardError::Rejected {
                                        partition: entry.partition,
                                        source,
                                    }),
                            };
                            shard_out.push((
                                entry.ticket,
                                entry.partition,
                                entry.insert_positions,
                                result,
                            ));
                        }
                        out.push((start, shard_out));
                    }
                    (lane_at, out)
                }));
            }
            let mut buckets: Vec<Vec<(usize, Vec<Outcome>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for handle in handles {
                let (lane_at, out) = handle.join().expect("drain worker panicked");
                buckets[lane_at] = out;
            }
            buckets
        });

        // Merge in (shard, FIFO) order — the serial drain's order.
        let mut merged: Vec<(usize, Vec<Outcome>)> = buckets.drain(..).flatten().collect();
        merged.sort_by_key(|(start, _)| *start);
        for (_, outcomes) in merged {
            for (ticket, partition, insert_positions, result) in outcomes {
                let pending = self
                    .pending
                    .get_mut(&ticket)
                    .expect("drained entry without a pending ticket");
                match result {
                    Ok(locals) => {
                        for (&pos, &local) in insert_positions.iter().zip(&locals) {
                            pending.ids[pos as usize] = GlobalId { partition, local }.client_id();
                        }
                    }
                    Err(e) => {
                        pending.error.get_or_insert(e);
                    }
                }
            }
        }
        self.queues = (0..shards).map(|_| VecDeque::new()).collect();
        self.take_completed()
    }
}
