//! The single-maintainer workloads (`paper_d2`, `bulk_d64`): one
//! [`DurableMaintainer`] over an in-memory segmented WAL and in-memory
//! checkpoints, driven batch by batch through `apply_with`, with a
//! [`DeltaEngine`] epoch and a `Tree` poll every `epoch_every` batches.
//!
//! The media are in memory, not files: on a shared host the latency of a
//! per-batch fsync swings 2-5x within minutes with other tenants' disk
//! traffic, which no regression bound can hold.

use crate::media::{CountingCheckpoints, CountingSink};
use crate::run::{setups_done, Counts, Ctx, System, COMMIT_US, SEARCH_US};
use crate::verify;
use idb_core::{
    recover_chain_with_obs, DurabilityConfig, DurableMaintainer, IncrementalBubbles,
    MaintainerConfig, MemCheckpoints, SeedSearch,
};
use idb_delta::{DeltaEngine, DeltaParams, Interest, SubscriptionId, TreeReplica};
use idb_geometry::{Parallelism, SearchStats};
use idb_obs::Obs;
use idb_store::{MemSegments, PointId, PointStore, SegmentedSink, StorageBudget};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// WAL segment size (the library default, pinned).
pub const SEGMENT_BYTES: u64 = 4 << 20;

/// Shape of one single-maintainer workload.
#[derive(Debug, Clone)]
pub struct SingleSpec {
    pub name: &'static str,
    pub kind: ScenarioKind,
    pub dim: usize,
    pub points: usize,
    pub churn: f64,
    pub bubbles: usize,
    pub par: Parallelism,
    pub epoch_every: u64,
    pub min_pts: usize,
    pub min_cluster: usize,
}

pub const PAPER_D2: SingleSpec = SingleSpec {
    name: "paper_d2",
    kind: ScenarioKind::Complex,
    dim: 2,
    points: 10_000,
    churn: 0.02,
    bubbles: 200,
    par: Parallelism::Serial,
    epoch_every: 1,
    min_pts: 10,
    min_cluster: 50,
};

pub const BULK_D64: SingleSpec = SingleSpec {
    name: "bulk_d64",
    kind: ScenarioKind::Random,
    dim: 64,
    points: 20_000,
    churn: 0.05,
    bubbles: 200,
    par: Parallelism::Threads(2),
    epoch_every: 8,
    min_pts: 10,
    min_cluster: 100,
};

impl SingleSpec {
    fn maintainer_config(&self) -> MaintainerConfig {
        MaintainerConfig::new(self.bubbles)
            .with_seed_search(SeedSearch::Pruned)
            .with_parallelism(self.par)
    }

    fn durability_config() -> DurabilityConfig {
        DurabilityConfig {
            group_commit: 1,
            checkpoint_interval: 64,
            max_retries: 3,
            retry_backoff: std::time::Duration::ZERO,
            max_buffered: 1024,
            checkpoint_chunk_bytes: 64 * 1024,
            full_rebase_interval: 4,
            disk_budget: StorageBudget::unbounded(),
            hot_points: None,
        }
    }

    fn delta_params(&self) -> DeltaParams {
        DeltaParams {
            par: self.par,
            ..DeltaParams::new(self.min_pts, self.min_cluster)
        }
    }
}

type Maintainer = DurableMaintainer<
    CountingSink<SegmentedSink<MemSegments>>,
    CountingCheckpoints<MemCheckpoints>,
>;

/// Salt separating the maintenance RNG stream from the generator's.
const MAINT_SALT: u64 = 0x6D61_696E_7465_6E61;

/// One single-maintainer system under test.
pub struct Single {
    spec: SingleSpec,
    scenario: ScenarioEngine,
    srng: StdRng,
    mrng: StdRng,
    search: SearchStats,
    m: Maintainer,
    engine: DeltaEngine,
    tree_sub: SubscriptionId,
    replica: TreeReplica,
    /// Copy of the durable media taken by `freeze`.
    frozen: Option<(MemSegments, MemCheckpoints)>,
}

fn local(id: PointId) -> u64 {
    u64::from(id.0)
}

/// Generates the workload's population from `seed` and brings a serving
/// system up on it repeatedly, as [`setups_done`] asks (build, WAL header
/// and baseline checkpoint, first resync epoch); returns the last system
/// and every setup time in seconds.
///
/// # Errors
/// A medium that cannot be opened or a maintainer that cannot start.
pub fn setup(spec: &SingleSpec, seed: u64, ctx: &mut Ctx) -> Result<(Single, Vec<f64>), String> {
    let mut srng = StdRng::seed_from_u64(seed);
    let mut scenario = ScenarioEngine::new(ScenarioSpec::named(
        spec.kind,
        spec.dim,
        spec.points,
        spec.churn,
    ));
    let population = scenario.populate(&mut srng);
    for (id, coords, _) in population.iter() {
        ctx.live.insert(local(id), coords);
    }
    let mut times = Vec::new();
    let mut built = None;
    while !setups_done(&times) {
        drop(built.take());
        let store: PointStore = population.clone();
        let t0 = Instant::now();
        let mut mrng = StdRng::seed_from_u64(seed ^ MAINT_SALT);
        let mut search = SearchStats::new();
        let mut bubbles =
            IncrementalBubbles::build(&store, spec.maintainer_config(), &mut mrng, &mut search);
        bubbles.set_obs(ctx.obs.clone());
        let sink = SegmentedSink::fresh(MemSegments::new(), SEGMENT_BYTES)
            .map_err(|e| format!("WAL: {e}"))?;
        let mut m = DurableMaintainer::adopt(
            store,
            bubbles,
            SingleSpec::durability_config(),
            CountingSink::new(sink),
            CountingCheckpoints::new(MemCheckpoints::new()),
        )
        .map_err(|e| format!("durable start: {e}"))?;
        m.set_change_tracking(true);
        let mut engine = DeltaEngine::new(spec.delta_params());
        engine.set_obs(ctx.obs.clone());
        let tree_sub = engine.subscribe(Interest::Tree);
        let changes = vec![m.take_changes()];
        engine.epoch(&[m.bubbles().bubbles()], changes, |_, id| local(id));
        let mut replica = TreeReplica::new();
        for d in engine.poll(tree_sub) {
            replica.apply(&d.delta);
        }
        times.push(t0.elapsed().as_secs_f64());
        built = Some((m, engine, tree_sub, replica, mrng, search));
    }
    let (m, engine, tree_sub, replica, mrng, search) = built.expect("at least one setup");
    Ok((
        Single {
            spec: spec.clone(),
            scenario,
            srng,
            mrng,
            search,
            m,
            engine,
            tree_sub,
            replica,
            frozen: None,
        },
        times,
    ))
}

impl Single {
    fn domains(&self) -> [&[idb_core::Bubble]; 1] {
        [self.m.bubbles().bubbles()]
    }
}

impl System for Single {
    fn batches_per_cycle(&self) -> u64 {
        self.spec.epoch_every
    }

    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let (group, root) = ctx.open_cycle();
        for _ in 0..self.spec.epoch_every {
            ctx.clock.pause();
            let batch = self.scenario.plan(&mut self.srng);
            let round_seed: u64 = self.mrng.gen();
            let (search0, commit0) = (ctx.hist_us(SEARCH_US), ctx.hist_us(COMMIT_US));
            ctx.clock.resume();
            let submit = ctx.clock.now();
            let submit_cpu = ctx.clock.cpu();
            let span = ctx.trace.open("core.apply", group, root, submit);
            let res = self
                .m
                .apply_with(&batch, round_seed, true, &mut self.search);
            let ack_cpu = ctx.clock.cpu();
            let ack = ctx.clock.now();
            ctx.trace.close(span, ack);
            let ids = match res {
                Ok(ids) => ids,
                Err(e) => {
                    ctx.trace.close(root, ack);
                    return Err(format!("batch rejected: {e}"));
                }
            };
            ctx.clock.pause();
            let search_us = ctx.hist_us(SEARCH_US) - search0;
            let commit_us = ctx.hist_us(COMMIT_US) - commit0;
            ctx.trace.derived("geometry.search", span, search_us, false);
            ctx.trace
                .derived("store.wal_commit", span, commit_us, false);
            self.scenario.confirm(&ids);
            let dels: Vec<u64> = batch.deletes.iter().map(|&id| local(id)).collect();
            let ins: Vec<u64> = ids.iter().map(|&id| local(id)).collect();
            ctx.live.apply(&batch, &dels, &ins);
            ctx.acked(&batch, self.spec.dim);
            ctx.sample_ack(submit_cpu, ack_cpu);
            ctx.clock.resume();
        }

        ctx.clock.pause();
        let changes = self.m.take_changes();
        ctx.tally_changes(changes.as_ref());
        ctx.clock.resume();
        let t0 = ctx.clock.now();
        let span = ctx.trace.open("delta.epoch", group, root, t0);
        let report = self
            .engine
            .epoch(&[self.m.bubbles().bubbles()], vec![changes], |_, id| {
                local(id)
            });
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
        ctx.delivered(ctx.clock.cpu());
        let done = ctx.clock.now();
        ctx.trace.close(span, done);
        ctx.trace.close(root, done);
        Ok(())
    }

    fn lookup(&self, id: u64, out: &mut Vec<f64>) -> bool {
        let pid = PointId(id as u32);
        self.m.store().read_point_into(pid, out).is_ok()
            && std::hint::black_box(self.m.bubbles().assignment(pid)).is_some()
    }

    fn scratch(&self) {
        std::hint::black_box(verify::scratch(
            &self.domains(),
            |_, id| local(id),
            self.spec.min_pts,
            self.spec.min_cluster,
        ));
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        let sink = self.m.wal_sink();
        c.insert("store.wal_bytes", sink.bytes);
        c.insert("store.fsyncs", sink.syncs);
        let ckpts = self.m.checkpoints();
        c.insert("store.checkpoint_bytes", ckpts.bytes);
        c.insert("store.checkpoints", ckpts.published);
        crate::run::maintainer_counts(self.m.store(), self.m.bubbles(), &mut c);
        crate::run::registry_counts(self.m.bubbles().obs(), &mut c);
        c
    }

    fn verify(&self) -> Vec<String> {
        let delta = verify::check_delta(
            &self.engine,
            &self.replica,
            &self.domains(),
            |_, id| local(id),
            self.spec.min_pts,
            self.spec.min_cluster,
        );
        let audit = verify::check_audit(self.m.store(), self.m.bubbles());
        [delta, audit].into_iter().filter_map(Result::err).collect()
    }

    fn fscore(&self) -> f64 {
        idb_eval::fscore(self.m.store(), &verify::leaves(&self.engine.clusters())).overall
    }

    fn freeze(&mut self) -> Result<(), String> {
        let segments = MemSegments::new();
        segments.restore(self.m.wal_sink().inner().medium().snapshot());
        let frozen = (segments, self.m.checkpoints().inner().clone());
        let rec = recover_chain_with_obs(&frozen.0, &frozen.1, &Obs::disabled())
            .map_err(|e| e.to_string())?;
        if rec.batches_durable != self.m.batches_applied() {
            return Err(format!(
                "recovered {} batches, live state has {}",
                rec.batches_durable,
                self.m.batches_applied()
            ));
        }
        if verify::fingerprint(&rec.store, &rec.bubbles)
            != verify::fingerprint(self.m.store(), self.m.bubbles())
        {
            return Err("recovered state differs from the live state".into());
        }
        self.frozen = Some(frozen);
        Ok(())
    }

    fn rebuild(&self) -> Result<f64, String> {
        let (segments, ckpts) = self.frozen.as_ref().ok_or("no frozen media")?;
        let t0 = Instant::now();
        let rec =
            recover_chain_with_obs(segments, ckpts, &Obs::disabled()).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        drop(rec);
        Ok(secs)
    }

    fn config(&self) -> String {
        let s = &self.spec;
        let d = SingleSpec::durability_config();
        format!(
            "{{\"workload\": \"{}\", \"scenario\": \"{}\", \"dim\": {}, \"points\": {}, \
             \"churn\": {}, \"bubbles\": {}, \"seed_search\": \"pruned\", \"warm_start\": true, \
             \"parallelism\": \"{:?}\", \"obs\": \"{}\", \"wal\": \"segmented/memory\", \
             \"segment_bytes\": {SEGMENT_BYTES}, \"group_commit\": {}, \"checkpoint_interval\": {}, \
             \"full_rebase_interval\": {}, \"checkpoint_chunk_bytes\": {}, \"disk_budget\": \"unbounded\", \
             \"hot_points\": null, \"epoch_every\": {}, \"min_pts\": {}, \"min_cluster\": {}, \
             \"delta_par\": \"{:?}\", \"subscriptions\": [\"Tree\"]}}",
            s.name,
            s.kind.name(),
            s.dim,
            s.points,
            s.churn,
            s.bubbles,
            s.par,
            if self.m.bubbles().obs().metrics_on() { "metrics_only" } else { "disabled" },
            d.group_commit,
            d.checkpoint_interval,
            d.full_rebase_interval,
            d.checkpoint_chunk_bytes,
            s.epoch_every,
            s.min_pts,
            s.min_cluster,
            s.par,
        )
    }
}
