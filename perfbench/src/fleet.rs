//! The fleet workload (`fleet_d4`): eight independent Complex d4 streams
//! into an eight-partition [`ShardRouter`] in two shards, each partition
//! with a cold tier holding all but a fifth of its points. One wave
//! submits one batch per stream, drains serially, runs one merged
//! delta epoch over every partition and polls a `Tree` subscription plus
//! several `Subtree` subscriptions.

use crate::media::{CountingCheckpoints, CountingSink};
use crate::run::{setups_done, Counts, Ctx, System, COMMIT_US, SEARCH_US};
use crate::verify;
use idb_core::{
    recover_with_obs, Bubble, DurabilityConfig, MaintainerConfig, MemCheckpoints, SeedSearch,
};
use idb_delta::{ClusterId, DeltaEngine, DeltaParams, Interest, SubscriptionId, TreeReplica};
use idb_geometry::Parallelism;
use idb_obs::Obs;
use idb_shard::{route_point, GlobalId, ShardConfig, ShardError, ShardRouter};
use idb_store::{Batch, MemSink, PointId, PointStore, StorageBudget};
use idb_synth::{MultiStreamEngine, ScenarioKind};
use std::collections::HashMap;
use std::time::Instant;

const STREAMS: usize = 8;
const DIM: usize = 4;
const PER_STREAM: usize = 2_000;
const CHURN: f64 = 0.01;
const BUBBLES: usize = 32;
const PARTITIONS: u32 = 8;
const SHARDS: u32 = 2;
/// Per-partition hot budget: about a fifth of a partition's points.
const HOT_POINTS: usize = 400;
/// Serial, not `Threads(2)`: on a 2-CPU host the threaded drain was both
/// slower (ack p50 2.1 vs 1.2 ms) and far noisier in its tail (ten-run
/// `fresh_p99_ms` spread 0.56; interleaved pairs 0.64 vs 0.19). The
/// parallel layer is measured on `bulk_d64`.
const DRAIN: Parallelism = Parallelism::Serial;
const MIN_PTS: usize = 10;
const MIN_CLUSTER: usize = 80;
/// `Subtree` subscriptions besides the root's: the root's first children.
const SUBTREES: usize = 3;
const MAINT_SALT: u64 = 0x666C_6565_7464_3421;

type Router = ShardRouter<CountingSink<MemSink>, CountingCheckpoints<MemCheckpoints>>;
/// One batch per stream, tagged with its stream.
type Wave = Vec<(u32, Batch)>;

fn global(partition: u32, local: PointId) -> u64 {
    GlobalId { partition, local }.as_u64()
}

fn maintainer_config() -> MaintainerConfig {
    MaintainerConfig::new(BUBBLES)
        .with_seed_search(SeedSearch::Pruned)
        .with_parallelism(Parallelism::Serial)
}

fn shard_config() -> ShardConfig {
    ShardConfig::new(PARTITIONS)
        .with_shards(SHARDS)
        .with_queue_capacity(1024)
        .with_supervision(3, 2)
        .with_hot_points(Some(HOT_POINTS))
        .with_disk_budget(StorageBudget::unbounded())
}

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        group_commit: 1,
        checkpoint_interval: 64,
        max_retries: 3,
        retry_backoff: std::time::Duration::ZERO,
        max_buffered: 1024,
        checkpoint_chunk_bytes: 64 * 1024,
        // The library default. Every partition takes ~8 sub-batches per
        // wave, so all eight checkpoint within a wave or two of each other
        // (every ~8th wave), and a full rebase streams its chunks over 2-4
        // waves that drain several times slower than the rest: ~8% of
        // waves, so the wave p99 rests inside that class. With a full
        // rebase every 12th checkpoint those waves were ~3%, and the p99
        // fell on the steep edge between them and ordinary waves.
        full_rebase_interval: 4,
        disk_budget: StorageBudget::unbounded(),
        hot_points: Some(HOT_POINTS),
    }
}

fn delta_params() -> DeltaParams {
    DeltaParams {
        par: Parallelism::Serial,
        ..DeltaParams::new(MIN_PTS, MIN_CLUSTER)
    }
}

/// The fleet system under test.
pub struct Fleet {
    streams: MultiStreamEngine,
    router: Router,
    engine: DeltaEngine,
    tree_sub: SubscriptionId,
    subtree_subs: Vec<SubscriptionId>,
    replica: TreeReplica,
    obs: Obs,
    /// Per partition, a copy of its WAL and checkpoints taken by `freeze`.
    frozen: Vec<(Vec<u8>, MemCheckpoints)>,
}

/// Drains every partition's change log (enabling tracking where a
/// restart left it off) — what `idb_delta::router_epoch` does, done here
/// so the harness can count the logs it forwards.
fn drain_changes(
    router: &mut Router,
) -> Result<Vec<Option<Vec<idb_core::BubbleChange>>>, ShardError> {
    (0..PARTITIONS)
        .map(|p| {
            let m = router
                .maintainer_mut(p)
                .ok_or(ShardError::Unavailable { partition: p })?;
            if !m.bubbles().change_tracking() {
                m.set_change_tracking(true);
            }
            Ok(m.take_changes())
        })
        .collect()
}

fn domains(router: &Router) -> Vec<&[Bubble]> {
    (0..PARTITIONS)
        .map(|p| router.partition_bubbles(p).expect("every partition online"))
        .collect()
}

/// Generates the eight streams from `seed` and brings the fleet up
/// repeatedly, as [`setups_done`] asks (per-partition builds, WAL headers
/// and baseline checkpoints, cold-tier spill, first merged resync epoch);
/// returns the last fleet and every setup time in seconds.
///
/// # Errors
/// A partition that cannot start.
pub fn setup(seed: u64, ctx: &mut Ctx) -> Result<(Fleet, Vec<f64>), String> {
    let mut streams = MultiStreamEngine::named(
        &[ScenarioKind::Complex; STREAMS],
        DIM,
        PER_STREAM,
        CHURN,
        seed,
    );
    let mut initial = Batch::default();
    let mut spans = Vec::new();
    for (s, b) in streams.populate_batches() {
        spans.push((s, initial.inserts.len(), b.inserts.len()));
        initial.inserts.extend(b.inserts);
    }
    let mut times = Vec::new();
    let mut built = None;
    while !setups_done(&times) {
        drop(built.take());
        let t0 = Instant::now();
        let (mut router, ids) = ShardRouter::create(
            DIM,
            &initial,
            &maintainer_config(),
            shard_config(),
            durability_config(),
            seed ^ MAINT_SALT,
            &ctx.obs,
            |_| {
                (
                    CountingSink::new(MemSink::new()),
                    CountingCheckpoints::new(MemCheckpoints::new()),
                )
            },
        )
        .map_err(|e| format!("fleet start: {e}"))?;
        router.set_change_tracking(true);
        let mut engine = DeltaEngine::new(delta_params());
        engine.set_obs(ctx.obs.clone());
        let tree_sub = engine.subscribe(Interest::Tree);
        let changes = drain_changes(&mut router).map_err(|e| e.to_string())?;
        engine.epoch(&domains(&router), changes, global);
        let mut replica = TreeReplica::new();
        for d in engine.poll(tree_sub) {
            replica.apply(&d.delta);
        }
        let root = ClusterId(0);
        let children: Vec<ClusterId> = engine
            .clusters()
            .iter()
            .filter(|c| c.1 == Some(root))
            .take(SUBTREES)
            .map(|c| c.0)
            .collect();
        let subtree_subs = std::iter::once(root)
            .chain(children)
            .map(|id| engine.subscribe(Interest::Subtree(id)))
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        built = Some((router, ids, engine, tree_sub, subtree_subs, replica));
    }
    let (router, ids, engine, tree_sub, subtree_subs, replica) = built.expect("at least one setup");
    for (s, start, len) in spans {
        let got = &ids[start..start + len];
        streams.confirm(s, got);
        for ((coords, _), id) in initial.inserts[start..start + len].iter().zip(got) {
            ctx.live.insert(u64::from(id.0), coords);
        }
    }
    Ok((
        Fleet {
            streams,
            router,
            engine,
            tree_sub,
            subtree_subs,
            replica,
            obs: ctx.obs.clone(),
            frozen: Vec::new(),
        },
        times,
    ))
}

impl Fleet {
    /// Plans one batch per stream and counts each partition's share of
    /// the wave's operations.
    fn plan_wave(&mut self) -> Result<(Wave, Vec<u64>), String> {
        let mut wave = Vec::with_capacity(STREAMS);
        let mut per_partition = vec![0u64; PARTITIONS as usize];
        for _ in 0..STREAMS {
            let (s, b) = self.streams.plan_next().ok_or("every stream is empty")?;
            for &id in &b.deletes {
                let g = GlobalId::from_client(id, PARTITIONS).ok_or("delete of a foreign id")?;
                per_partition[g.partition as usize] += 1;
            }
            for (coords, _) in &b.inserts {
                per_partition[route_point(coords, PARTITIONS) as usize] += 1;
            }
            wave.push((s, b));
        }
        Ok((wave, per_partition))
    }

    fn submit_and_drain(
        &mut self,
        ctx: &mut Ctx,
        group: u64,
        root: Option<usize>,
    ) -> Result<(), String> {
        ctx.clock.pause();
        let planned = self.plan_wave();
        let (search0, commit0) = (ctx.hist_us(SEARCH_US), ctx.hist_us(COMMIT_US));
        ctx.clock.resume();
        let (wave, per_partition) = planned?;

        let mut tickets = HashMap::with_capacity(STREAMS);
        let first_submit = ctx.clock.cpu();
        for (i, (_, batch)) in wave.iter().enumerate() {
            let t0 = ctx.clock.now();
            let span = ctx.trace.open("shard.submit", group, root, t0);
            let ticket = self.router.submit(batch);
            ctx.trace.close(span, ctx.clock.now());
            tickets.insert(ticket.map_err(|e| format!("submit rejected: {e}"))?, i);
        }
        ctx.clock.pause();
        let depth = (0..SHARDS)
            .map(|s| self.router.queue_depth(s))
            .max()
            .unwrap_or(0);
        ctx.tally_wave(depth as u64, &per_partition);
        ctx.clock.resume();

        let t0 = ctx.clock.now();
        let span = ctx.trace.open("shard.drain", group, root, t0);
        let results = self.router.drain_with(DRAIN);
        let ack_cpu = ctx.clock.cpu();
        ctx.trace.close(span, ctx.clock.now());

        ctx.clock.pause();
        // Program histograms measured on the drain workers: busy time
        // inside the drain, not a sub-interval of it.
        let search_us = ctx.hist_us(SEARCH_US) - search0;
        let commit_us = ctx.hist_us(COMMIT_US) - commit0;
        ctx.trace.derived("geometry.search", span, search_us, true);
        ctx.trace.derived("store.wal_commit", span, commit_us, true);
        let mut outcome = Ok(());
        for (ticket, result) in results {
            let (stream, batch) = &wave[tickets[&ticket]];
            match result {
                Ok(ids) => {
                    self.streams.confirm(*stream, &ids);
                    let dels: Vec<u64> = batch.deletes.iter().map(|id| u64::from(id.0)).collect();
                    let ins: Vec<u64> = ids.iter().map(|id| u64::from(id.0)).collect();
                    ctx.live.apply(batch, &dels, &ins);
                    ctx.acked(batch, DIM);
                }
                Err(e) => outcome = Err(format!("batch rejected in drain: {e}")),
            }
        }
        // One latency sample per wave, from its first submit: the wave's
        // batches share one drain and one epoch, so per-batch samples would
        // repeat each other and overstate how many samples a percentile
        // rests on.
        if outcome.is_ok() {
            ctx.sample_ack(first_submit, ack_cpu);
        }
        ctx.clock.resume();
        outcome
    }
}

impl System for Fleet {
    fn batches_per_cycle(&self) -> u64 {
        STREAMS as u64
    }

    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let (group, root) = ctx.open_cycle();
        if let Err(e) = self.submit_and_drain(ctx, group, root) {
            ctx.trace.close(root, ctx.clock.now());
            return Err(e);
        }

        ctx.clock.pause();
        let changes = drain_changes(&mut self.router);
        if let Ok(logs) = &changes {
            for log in logs {
                ctx.tally_changes(log.as_ref());
            }
        }
        ctx.clock.resume();
        let changes = changes.map_err(|e| e.to_string())?;
        let t0 = ctx.clock.now();
        let span = ctx.trace.open("delta.epoch", group, root, t0);
        let report = self.engine.epoch(&domains(&self.router), changes, global);
        let t1 = ctx.clock.now();
        ctx.trace.close(span, t1);
        ctx.last_epoch_ns = t1 - t0;
        ctx.clock.pause();
        ctx.tally_epoch(&report);
        drop(report);
        ctx.clock.resume();

        let t2 = ctx.clock.now();
        let span = ctx.trace.open("delta.poll", group, root, t2);
        for d in self.engine.poll(self.tree_sub) {
            self.replica.apply(&d.delta);
        }
        for &sub in &self.subtree_subs {
            std::hint::black_box(self.engine.poll(sub));
        }
        ctx.delivered(ctx.clock.cpu());
        let done = ctx.clock.now();
        ctx.trace.close(span, done);
        ctx.trace.close(root, done);
        Ok(())
    }

    fn lookup(&self, id: u64, out: &mut Vec<f64>) -> bool {
        let Some(g) = GlobalId::from_client(PointId(id as u32), PARTITIONS) else {
            return false;
        };
        let Some(m) = self.router.maintainer(g.partition) else {
            return false;
        };
        m.store().read_point_into(g.local, out).is_ok()
            && std::hint::black_box(m.bubbles().assignment(g.local)).is_some()
    }

    fn scratch(&self) {
        std::hint::black_box(verify::scratch(
            &domains(&self.router),
            global,
            MIN_PTS,
            MIN_CLUSTER,
        ));
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        for p in 0..PARTITIONS {
            let Some(m) = self.router.maintainer(p) else {
                continue;
            };
            for (k, v) in [
                ("store.wal_bytes", m.wal_sink().bytes),
                ("store.fsyncs", m.wal_sink().syncs),
                ("store.checkpoint_bytes", m.checkpoints().bytes),
                ("store.checkpoints", m.checkpoints().published),
            ] {
                *c.entry(k).or_default() += v;
            }
            crate::run::maintainer_counts(m.store(), m.bubbles(), &mut c);
        }
        crate::run::registry_counts(&self.obs, &mut c);
        c
    }

    fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if let Err(e) = verify::check_delta(
            &self.engine,
            &self.replica,
            &domains(&self.router),
            global,
            MIN_PTS,
            MIN_CLUSTER,
        ) {
            errors.push(e);
        }
        for p in 0..PARTITIONS {
            match self.router.maintainer(p) {
                None => errors.push(format!("partition {p} offline")),
                Some(m) => {
                    if let Err(e) = verify::check_audit(m.store(), m.bubbles()) {
                        errors.push(format!("partition {p}: {e}"));
                    }
                }
            }
        }
        errors
    }

    fn fscore(&self) -> f64 {
        // One labelled store over every partition, for the F-measure.
        let mut store = PointStore::new(DIM);
        let mut renumber = HashMap::new();
        let mut buf = Vec::with_capacity(DIM);
        for p in 0..PARTITIONS {
            let Some(m) = self.router.maintainer(p) else {
                return 0.0;
            };
            for local in m.store().ids() {
                buf.clear();
                if m.store().read_point_into(local, &mut buf).is_err() {
                    return 0.0;
                }
                let id = store.insert(&buf, m.store().label(local));
                renumber.insert(global(p, local), u64::from(id.0));
            }
        }
        let leaves: Vec<Vec<u64>> = verify::leaves(&self.engine.clusters())
            .into_iter()
            .map(|c| c.iter().map(|g| renumber[g]).collect())
            .collect();
        idb_eval::fscore(&store, &leaves).overall
    }

    fn freeze(&mut self) -> Result<(), String> {
        let mut live = Vec::new();
        let mut frozen = Vec::new();
        for p in 0..PARTITIONS {
            let m = self
                .router
                .maintainer(p)
                .ok_or(format!("partition {p} offline"))?;
            live.push(verify::fingerprint(m.store(), m.bubbles()));
            frozen.push((
                m.wal_sink().inner().bytes().to_vec(),
                m.checkpoints().inner().clone(),
            ));
        }
        // Crash and restart every partition for real — the rebuild timed
        // by `rebuild` plus the resume — and check the restarted fleet,
        // which serves the rest of the run.
        for p in 0..PARTITIONS {
            let (sink, ckpts) = self
                .router
                .kill_partition(p)
                .ok_or(format!("partition {p} already offline"))?;
            let wal = sink.inner().bytes().to_vec();
            self.router
                .restart_partition(p, &wal, sink, ckpts)
                .map_err(|e| format!("partition {p}: {e}"))?;
        }
        for (p, before) in live.iter().enumerate() {
            let m = self.router.maintainer(p as u32).expect("restarted");
            if &verify::fingerprint(m.store(), m.bubbles()) != before {
                return Err(format!(
                    "partition {p}: recovered state differs from the live state"
                ));
            }
        }
        self.frozen = frozen;
        Ok(())
    }

    fn rebuild(&self) -> Result<f64, String> {
        if self.frozen.is_empty() {
            return Err("no frozen media".into());
        }
        // The rebuild `restart_partition` runs before it resumes, for
        // every partition.
        let t0 = Instant::now();
        for (p, (wal, ckpts)) in self.frozen.iter().enumerate() {
            recover_with_obs(wal, ckpts, &Obs::disabled())
                .map_err(|e| format!("partition {p}: {e}"))?;
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    fn config(&self) -> String {
        let d = durability_config();
        format!(
            "{{\"workload\": \"fleet_d4\", \"scenario\": \"complex x{STREAMS} streams\", \"dim\": {DIM}, \
             \"points\": {}, \"churn\": {CHURN}, \"bubbles_per_partition\": {BUBBLES}, \
             \"partitions\": {PARTITIONS}, \"shards\": {SHARDS}, \"queue_capacity\": 1024, \
             \"drain\": \"{DRAIN:?}\", \"seed_search\": \"pruned\", \"warm_start\": true, \
             \"parallelism\": \"Serial\", \"obs\": \"{}\", \"wal\": \"single-file/memory\", \
             \"group_commit\": {}, \"checkpoint_interval\": {}, \"full_rebase_interval\": {}, \
             \"checkpoint_chunk_bytes\": {}, \"disk_budget\": \"unbounded\", \
             \"hot_points_per_partition\": {HOT_POINTS}, \"cold\": \"file\", \"epoch_every\": 1, \
             \"min_pts\": {MIN_PTS}, \"min_cluster\": {MIN_CLUSTER}, \"delta_par\": \"Serial\", \
             \"subscriptions\": [\"Tree\", \"Subtree(root)\", \"Subtree(child) x{SUBTREES}\"]}}",
            STREAMS * PER_STREAM,
            if self.obs.metrics_on() { "metrics_only" } else { "disabled" },
            d.group_commit,
            d.checkpoint_interval,
            d.full_rebase_interval,
            d.checkpoint_chunk_bytes,
        )
    }
}
