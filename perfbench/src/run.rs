//! The closed loop shared by every workload: one client submits a
//! cycle of batches, waits for the durable ack, runs the delta epoch,
//! polls the subscriptions, then issues read probes — and only then
//! submits the next cycle.

use crate::stats::{beyond, percentile};
use crate::trace::{Clock, SpanId, Tracer};
use idb_core::BubbleChange;
use idb_delta::EpochReport;
use idb_obs::Obs;
use idb_store::Batch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Lookups per read probe.
pub const LOOKUPS: usize = 16;
/// In a traced run, the from-scratch reference is timed every this many
/// cycles.
pub const SCRATCH_EVERY: u64 = 4;
/// A run repeats its setup at least this many times, and until the
/// setups took [`SETUP_MIN_S`] together; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
pub const SETUP_MIN_S: f64 = 1.0;

/// Whether the setups timed so far are enough (see [`SETUP_REPS`]).
#[must_use]
pub fn setups_done(times: &[f64]) -> bool {
    times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S
}

/// Latency samples a timed run collects at least: a p99 then has ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Program histograms carved out of `core.apply` as derived children.
pub const SEARCH_US: &str = "assign.pruned.search_us";
pub const COMMIT_US: &str = "wal.commit_us";

/// Exact per-layer counts, keyed by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// How long a run goes on.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seconds: f64,
    pub warmup: u64,
    /// Cycles whose counts form the per-layer count window.
    pub window: u64,
}

/// Ids and coordinates of the live points, for uniform read sampling and
/// for checking what reads return.
#[derive(Debug)]
pub struct LiveSet {
    dim: usize,
    ids: Vec<u64>,
    coords: Vec<f64>,
    pos: HashMap<u64, usize>,
}

impl LiveSet {
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ids: Vec::new(),
            coords: Vec::new(),
            pos: HashMap::new(),
        }
    }

    pub fn insert(&mut self, id: u64, coords: &[f64]) {
        let prev = self.pos.insert(id, self.ids.len());
        assert!(prev.is_none(), "id {id} inserted twice");
        self.ids.push(id);
        self.coords.extend_from_slice(coords);
    }

    pub fn remove(&mut self, id: u64) {
        let i = self
            .pos
            .remove(&id)
            .expect("deleting a point that is not live");
        let last = self.ids.len() - 1;
        self.ids.swap_remove(i);
        let d = self.dim;
        for k in 0..d {
            self.coords[i * d + k] = self.coords[last * d + k];
        }
        self.coords.truncate(last * d);
        if i < last {
            self.pos.insert(self.ids[i], i);
        }
    }

    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        self.ids[rng.gen_range(0..self.ids.len())]
    }

    #[must_use]
    pub fn coords(&self, id: u64) -> &[f64] {
        let i = self.pos[&id];
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Applies an acknowledged batch: its deletes, then its inserts under
    /// the ids the system assigned.
    pub fn apply(&mut self, batch: &Batch, delete_ids: &[u64], insert_ids: &[u64]) {
        for &id in delete_ids {
            self.remove(id);
        }
        for ((coords, _), &id) in batch.inserts.iter().zip(insert_ids) {
            self.insert(id, coords);
        }
    }
}

/// Everything the measurement loop and a workload share during a run.
#[derive(Debug)]
pub struct Ctx {
    pub clock: Clock,
    pub trace: Tracer,
    pub obs: Obs,
    /// `false` during warm-up: nothing is sampled or counted.
    pub recording: bool,
    /// Inside the per-layer count window.
    pub in_window: bool,
    group: u64,
    pub ack_ns: Vec<f64>,
    pub fresh_ns: Vec<f64>,
    pub read_ns: Vec<f64>,
    pending: Vec<u64>,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub payload_bytes: u64,
    pub batches: u64,
    pub cycles: u64,
    /// Harness-side counts over the window (change logs, epoch reports).
    pub tally: Counts,
    pub queue_depth_max: u64,
    skew_sum: f64,
    skew_waves: u64,
    pub live: LiveSet,
    probe_rng: StdRng,
    /// `(delta epoch ns, scratch ns)` over the same state.
    pub scratch_pairs: Vec<(u64, u64)>,
    pub last_epoch_ns: u64,
    /// Reads that returned wrong coordinates, in any phase, and the first
    /// such mismatch.
    pub wrong_reads: u64,
    pub first_wrong_read: Option<String>,
}

impl Ctx {
    #[must_use]
    pub fn new(obs: Obs, dim: usize, seed: u64) -> Self {
        Self {
            clock: Clock::new(),
            trace: Tracer::new(false),
            obs,
            recording: false,
            in_window: false,
            group: 0,
            ack_ns: Vec::new(),
            fresh_ns: Vec::new(),
            read_ns: Vec::new(),
            pending: Vec::new(),
            ops: 0,
            attempted: 0,
            failed: 0,
            payload_bytes: 0,
            batches: 0,
            cycles: 0,
            tally: Counts::new(),
            queue_depth_max: 0,
            skew_sum: 0.0,
            skew_waves: 0,
            live: LiveSet::new(dim),
            probe_rng: StdRng::seed_from_u64(seed ^ 0x0BAD_5EED),
            scratch_pairs: Vec::new(),
            last_epoch_ns: 0,
            wrong_reads: 0,
            first_wrong_read: None,
        }
    }

    /// A fresh span group id (one per cycle or probe).
    pub fn next_group(&mut self) -> u64 {
        self.group += 1;
        self.group
    }

    /// Sum of a program latency histogram in microseconds (0 when the
    /// metrics registry is off).
    #[must_use]
    pub fn hist_us(&self, name: &str) -> u64 {
        if self.obs.metrics_on() {
            self.obs.metrics().histogram(name).sum()
        } else {
            0
        }
    }

    /// Counts one acknowledged batch.
    pub fn acked(&mut self, batch: &Batch, dim: usize) {
        if !self.recording {
            return;
        }
        self.attempted += 1;
        self.batches += 1;
        self.ops += batch.len() as u64;
        self.payload_bytes += (batch.inserts.len() * dim * 8 + batch.deletes.len() * 4) as u64;
    }

    /// Records one ack latency, submitted at `submit` and acked at `ack`
    /// (CPU service ns, [`Clock::cpu`]); its freshness sample completes at
    /// the next [`Ctx::delivered`].
    pub fn sample_ack(&mut self, submit: u64, ack: u64) {
        if !self.recording {
            return;
        }
        self.ack_ns.push((ack - submit) as f64);
        self.pending.push(submit);
    }

    /// The subscriber's poll returned the epoch covering every pending
    /// batch at `now` (CPU service ns).
    pub fn delivered(&mut self, now: u64) {
        for submit in self.pending.drain(..) {
            self.fresh_ns.push((now - submit) as f64);
        }
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.in_window {
            *self.tally.entry(name).or_default() += n;
        }
    }

    /// Counts one drained change log: touched bubbles, pushed slots,
    /// removed slots (a missing log counts nothing — the epoch resyncs).
    pub fn tally_changes(&mut self, log: Option<&Vec<BubbleChange>>) {
        let (mut touched, mut pushed, mut removed) = (0, 0, 0);
        for c in log.into_iter().flatten() {
            match c {
                BubbleChange::Touched(_) => touched += 1,
                BubbleChange::Pushed => pushed += 1,
                BubbleChange::SwapRemoved(_) => removed += 1,
            }
        }
        self.add("core.bubbles_touched", touched);
        self.add("core.slots_pushed", pushed);
        self.add("core.slots_removed", removed);
    }

    pub fn tally_epoch(&mut self, r: &EpochReport) {
        self.add("delta.rows_touched", r.touched as u64);
        self.add("delta.rows_total", r.total as u64);
        self.add("delta.deltas_emitted", r.deltas.len() as u64);
        self.add("delta.tree_reused", r.tree.reused as u64);
        self.add("delta.tree_rebuilt", r.tree.rebuilt as u64);
    }

    /// Records one wave's queue depth and per-partition op counts.
    pub fn tally_wave(&mut self, depth: u64, ops_per_partition: &[u64]) {
        if !self.in_window {
            return;
        }
        self.queue_depth_max = self.queue_depth_max.max(depth);
        let total: u64 = ops_per_partition.iter().sum();
        if total > 0 {
            let mean = total as f64 / ops_per_partition.len() as f64;
            let max = *ops_per_partition.iter().max().expect("non-empty") as f64;
            self.skew_sum += max / mean;
            self.skew_waves += 1;
        }
    }

    #[must_use]
    pub fn skew(&self) -> f64 {
        if self.skew_waves == 0 {
            0.0
        } else {
            self.skew_sum / self.skew_waves as f64
        }
    }

    /// Opens the root span of a cycle.
    pub fn open_cycle(&mut self) -> (u64, SpanId) {
        let group = self.next_group();
        let now = self.clock.now();
        (group, self.trace.open("bench.cycle", group, None, now))
    }
}

/// One workload's system under test, as the measurement loop sees it.
pub trait System {
    fn batches_per_cycle(&self) -> u64;
    /// Submits one cycle of batches, waits for their acks, runs the delta
    /// epoch and polls the subscriptions.
    ///
    /// # Errors
    /// A rejected batch or a failed epoch.
    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String>;
    /// One lookup: coordinates into `out` plus the owning bubble.
    fn lookup(&self, id: u64, out: &mut Vec<f64>) -> bool;
    /// Runs the from-scratch reference pipeline over the current state.
    fn scratch(&self);
    /// Snapshot of the program-side counters (media, registry, tiers).
    fn counts(&self) -> Counts;
    /// Every output check; returns the failures.
    fn verify(&self) -> Vec<String>;
    /// F-score of the delta-maintained leaf clusters.
    fn fscore(&self) -> f64;
    /// Copies the durable media as they stand and checks that rebuilding
    /// from the copy reproduces the live state (the fleet also kills and
    /// restarts every partition for real and checks the restarted state).
    /// The copy is kept for [`System::rebuild`].
    ///
    /// # Errors
    /// A recovery failure or a recovered state that differs.
    fn freeze(&mut self) -> Result<(), String>;
    /// Rebuilds all state from the media [`System::freeze`] copied;
    /// returns the rebuild time in seconds.
    ///
    /// # Errors
    /// A recovery failure.
    fn rebuild(&self) -> Result<f64, String>;
    /// The resolved configuration, as a JSON object.
    fn config(&self) -> String;
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub samples: Vec<(&'static str, usize, usize)>,
    pub config: String,
    pub cycles: u64,
    pub batches: u64,
    pub measured_s: f64,
    /// Count-window values of every exact count (determinism checks).
    pub counts: Counts,
}

/// One read probe. A lookup that errors counts as a failed read; a lookup
/// that returns wrong coordinates also fails the run, in every phase.
fn one_probe<S: System>(sys: &S, ctx: &mut Ctx, buf: &mut Vec<f64>) {
    ctx.clock.pause();
    let ids: Vec<u64> = (0..LOOKUPS)
        .map(|_| ctx.live.sample(&mut ctx.probe_rng))
        .collect();
    buf.clear();
    ctx.clock.resume();
    let group = ctx.next_group();
    let t0 = ctx.clock.now();
    let span = ctx.trace.open("store.read", group, None, t0);
    let mut ok = true;
    for &id in &ids {
        ok &= sys.lookup(id, buf);
    }
    let t1 = ctx.clock.now();
    ctx.trace.close(span, t1);
    ctx.clock.pause();
    if ok {
        if let Err(e) = crate::verify::check_reads(&ctx.live, &ids, buf) {
            ok = false;
            ctx.wrong_reads += 1;
            ctx.first_wrong_read.get_or_insert(e);
        }
    }
    if ctx.recording {
        ctx.attempted += 1;
        if ok {
            ctx.read_ns.push((t1 - t0) as f64);
        } else {
            ctx.failed += 1;
        }
    }
    ctx.clock.resume();
}

fn scratch_timed<S: System>(sys: &S, ctx: &mut Ctx) {
    ctx.clock.pause();
    let t = std::time::Instant::now();
    sys.scratch();
    let ns = t.elapsed().as_nanos() as u64;
    let at = ctx.clock.now();
    let group = ctx.next_group();
    let span = ctx.trace.open("clustering.scratch", group, None, at);
    ctx.trace.close(span, at + ns);
    ctx.scratch_pairs.push((ctx.last_epoch_ns, ns));
    ctx.clock.resume();
}

/// Measured time between two periodic samples: a rebuild of the frozen
/// media and an F-score.
const SAMPLE_EVERY_NS: u64 = 5_000_000_000;

/// Drives `sys` through warm-up and the measured phase. When the count
/// window closes, the durable media are frozen — a fixed point of the
/// stream, so every run of a seed recovers the same state — and the
/// system warms up again, unrecorded, before measuring resumes. Every
/// [`SAMPLE_EVERY_NS`] of measured time from then on, with the clock
/// paused, the frozen media are rebuilt and the clusters scored, so
/// `recovery_s` and `fscore` (medians of those samples, the final score
/// included) cover the whole run like the other medians do. The output
/// checks run after the last cycle.
pub fn measure<S: System>(sys: &mut S, ctx: &mut Ctx, plan: &Plan, traced: bool) -> RunOutput {
    let mut out = RunOutput {
        config: sys.config(),
        ..RunOutput::default()
    };
    let mut buf = Vec::new();
    let probes = sys.batches_per_cycle();
    let run = |sys: &mut S, ctx: &mut Ctx, buf: &mut Vec<f64>| -> Result<(), String> {
        sys.cycle(ctx)?;
        for _ in 0..probes {
            one_probe(sys, ctx, buf);
        }
        Ok(())
    };
    for _ in 0..plan.warmup {
        if let Err(e) = run(sys, ctx, &mut buf) {
            out.errors.push(format!("warm-up: {e}"));
            return out;
        }
    }
    ctx.recording = true;
    ctx.in_window = true;
    ctx.trace = Tracer::new(traced);
    let start_counts = sys.counts();
    let mut window_counts = None;
    // Read where the count window closes, a fixed point of the stream:
    // the in-memory media keep growing as cycles run (the fleet's
    // single-file WAL never shrinks), so a peak read at the end would
    // grow with how many cycles the host managed to run.
    let mut peak_rss = None;
    let mut rebuilds: Vec<f64> = Vec::new();
    let mut fscores: Vec<f64> = Vec::new();
    let mut next_rebuild: Option<u64> = None;
    let mut excluded_ns = 0u64;
    let mut excluded_bytes = 0u64;
    let mut throughput = Vec::new();
    let t0 = ctx.clock.now();
    let mut cycles = 0u64;
    loop {
        let (c0, ops0) = (ctx.clock.now(), ctx.ops);
        if let Err(e) = sys.cycle(ctx) {
            ctx.attempted += 1;
            ctx.failed += 1;
            out.errors.push(format!("cycle {cycles}: {e}"));
            break;
        }
        if traced && cycles.is_multiple_of(SCRATCH_EVERY) {
            scratch_timed(sys, ctx);
        }
        for _ in 0..probes {
            one_probe(sys, ctx, &mut buf);
        }
        throughput.push((ctx.ops - ops0) as f64 * 1e9 / (ctx.clock.now() - c0) as f64);
        cycles += 1;
        if cycles == plan.window {
            ctx.clock.pause();
            peak_rss = Some(peak_rss_mb());
            let before = sys.counts();
            ctx.in_window = false;
            let frozen = sys.freeze();
            ctx.clock.resume();
            // A rebuilt fleet re-spills its cold tiers and resyncs its
            // next epoch: warm it up again, unrecorded, as at the start.
            let settle_from = ctx.clock.now();
            let tracer = std::mem::take(&mut ctx.trace);
            ctx.recording = false;
            let settled = (0..plan.warmup).try_for_each(|_| run(sys, ctx, &mut buf));
            ctx.recording = true;
            ctx.trace = tracer;
            // What the restart and the unrecorded cycles wrote is not
            // charged to the measured payload.
            excluded_bytes += durable_bytes(&before, &sys.counts());
            excluded_ns += ctx.clock.now() - settle_from;
            window_counts = Some(before);
            if let Err(e) = frozen {
                out.errors.push(format!("recovery: {e}"));
                break;
            }
            if let Err(e) = settled {
                out.errors.push(format!("after recovery: {e}"));
                break;
            }
            next_rebuild = Some(ctx.clock.now() - t0 - excluded_ns);
        }
        if let Some(due) = next_rebuild {
            if ctx.clock.now() - t0 - excluded_ns >= due {
                if let Err(e) = periodic_sample(sys, ctx, &mut rebuilds, &mut fscores) {
                    out.errors.push(format!("recovery: {e}"));
                    break;
                }
                next_rebuild = Some(due + SAMPLE_EVERY_NS);
            }
        }
        let elapsed = (ctx.clock.now() - t0 - excluded_ns) as f64 / 1e9;
        // A timed run also goes on until every p99 has ten samples beyond
        // it, however slow the host; `--seconds 0` is the shortest
        // complete run and stops with the count window.
        let enough = plan.seconds == 0.0
            || [&ctx.ack_ns, &ctx.fresh_ns, &ctx.read_ns]
                .iter()
                .all(|v| v.len() >= MIN_SAMPLES);
        if elapsed >= plan.seconds && cycles >= plan.window && enough {
            break;
        }
    }
    let t1 = ctx.clock.now();
    if next_rebuild.is_some() && rebuilds.is_empty() {
        if let Err(e) = periodic_sample(sys, ctx, &mut rebuilds, &mut fscores) {
            out.errors.push(format!("recovery: {e}"));
        }
    }
    ctx.clock.pause();
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
    let end_counts = sys.counts();
    let window_counts = window_counts.unwrap_or_else(|| end_counts.clone());
    ctx.recording = false;
    ctx.in_window = false;
    ctx.cycles = cycles;
    out.cycles = cycles;
    out.batches = ctx.batches;
    out.measured_s = (t1 - t0 - excluded_ns) as f64 / 1e9;
    out.ops_per_s = crate::stats::median(&throughput);
    out.errors.extend(sys.verify());
    if let Some(first) = &ctx.first_wrong_read {
        out.errors.push(format!(
            "{} read probes returned wrong coordinates; first: {first}",
            ctx.wrong_reads
        ));
    }
    fscores.push(sys.fscore());
    ctx.clock.resume();

    let durable = durable_bytes(&start_counts, &end_counts) - excluded_bytes;
    let ms = |v: &[f64], p: f64| percentile(v, p) / 1e6;
    out.e2e = vec![
        ("ops_per_s", out.ops_per_s),
        ("ack_p50_ms", ms(&ctx.ack_ns, 0.5)),
        ("ack_p99_ms", ms(&ctx.ack_ns, 0.99)),
        ("fresh_p50_ms", ms(&ctx.fresh_ns, 0.5)),
        ("fresh_p99_ms", ms(&ctx.fresh_ns, 0.99)),
        ("read_p50_us", percentile(&ctx.read_ns, 0.5) / 1e3),
        ("read_p99_us", percentile(&ctx.read_ns, 0.99) / 1e3),
        ("recovery_s", crate::stats::median(&rebuilds)),
        (
            "write_amp",
            durable as f64 / ctx.payload_bytes.max(1) as f64,
        ),
        ("peak_rss_mb", peak_rss),
        ("fscore", crate::stats::median(&fscores)),
        (
            "ok_frac",
            1.0 - ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ),
    ];
    for (name, v) in [
        ("ack", &ctx.ack_ns),
        ("fresh", &ctx.fresh_ns),
        ("read", &ctx.read_ns),
    ] {
        out.samples.push((name, v.len(), beyond(v.len(), 0.99)));
    }
    out.attempted = ctx.attempted;
    out.failed = ctx.failed;

    let mut counts = Counts::new();
    for k in window_counts.keys() {
        counts.insert(k, diff(&start_counts, &window_counts, k));
    }
    for (k, v) in &ctx.tally {
        counts.insert(k, *v);
    }
    counts.insert("shard.queue_depth_max", ctx.queue_depth_max);
    out.layer = layer_metrics(ctx, &counts);
    out.counts = counts;
    out
}

/// With the clock paused: one F-score of the current clusters, and one
/// rebuild of the frozen media, recorded as a `store.recover` span.
fn periodic_sample<S: System>(
    sys: &S,
    ctx: &mut Ctx,
    rebuilds: &mut Vec<f64>,
    fscores: &mut Vec<f64>,
) -> Result<(), String> {
    ctx.clock.pause();
    fscores.push(sys.fscore());
    let result = sys.rebuild();
    if let Ok(secs) = result {
        rebuilds.push(secs);
        let at = ctx.clock.now();
        let group = ctx.next_group();
        let span = ctx.trace.open("store.recover", group, None, at);
        ctx.trace.close(span, at + (secs * 1e9) as u64);
    }
    ctx.clock.resume();
    result.map(|_| ())
}

fn diff(a: &Counts, b: &Counts, k: &str) -> u64 {
    b.get(k).copied().unwrap_or(0) - a.get(k).copied().unwrap_or(0)
}

/// WAL plus checkpoint bytes written between two count snapshots.
fn durable_bytes(a: &Counts, b: &Counts) -> u64 {
    diff(a, b, "store.wal_bytes") + diff(a, b, "store.checkpoint_bytes")
}

/// Per-layer metrics from the traced run's spans and the window counts.
fn layer_metrics(ctx: &Ctx, counts: &Counts) -> Vec<(&'static str, f64)> {
    let selft = ctx.trace.self_times();
    let total = |name: &str| {
        selft
            .iter()
            .find(|e| e.0 == name)
            .map_or((0.0, 0u64), |e| (e.1 as f64, e.2))
    };
    let per = |name: &str, unit: f64| {
        let (ns, n) = total(name);
        if n == 0 {
            0.0
        } else {
            ns / n as f64 / unit
        }
    };
    let batches = ctx.batches.max(1) as f64;
    let per_batch = |name: &str, unit: f64| total(name).0 / batches / unit;
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let frac = |num: f64, base: f64| if base > 0.0 { num / base } else { 0.0 };

    // Residual: cycle time no top-level harness span covers.
    let spans = ctx.trace.spans();
    let mut cycle_ns = 0u64;
    let mut covered = 0u64;
    for s in spans {
        if s.name == "bench.cycle" {
            cycle_ns += s.dur();
        } else if let Some(p) = s.parent {
            if spans[p].name == "bench.cycle" {
                covered += s.dur();
            }
        }
    }
    let (epoch_sum, scratch_sum) = ctx
        .scratch_pairs
        .iter()
        .fold((0u64, 0u64), |(a, b), &(e, s)| (a + e, b + s));
    let candidates = c("geometry.computed") + c("geometry.pruned") + c("geometry.partial");

    vec![
        ("bench.batch_ms", cycle_ns as f64 / batches / 1e6),
        (
            "bench.residual_frac",
            frac((cycle_ns - covered) as f64, cycle_ns as f64),
        ),
        ("delta.epoch_ms", per("delta.epoch", 1e6)),
        (
            "delta.poll_us",
            total("delta.poll").0 / ctx.cycles.max(1) as f64 / 1e3,
        ),
        ("delta.rows_touched", c("delta.rows_touched")),
        ("delta.rows_total", c("delta.rows_total")),
        (
            "delta.touched_frac",
            frac(c("delta.rows_touched"), c("delta.rows_total")),
        ),
        ("delta.deltas_emitted", c("delta.deltas_emitted")),
        ("delta.tree_reused", c("delta.tree_reused")),
        ("delta.tree_rebuilt", c("delta.tree_rebuilt")),
        (
            "delta.vs_scratch",
            frac(epoch_sum as f64, scratch_sum as f64),
        ),
        ("clustering.scratch_ms", per("clustering.scratch", 1e6)),
        ("geometry.search_ms", per_batch("geometry.search", 1e6)),
        ("geometry.computed", c("geometry.computed")),
        ("geometry.partial", c("geometry.partial")),
        ("geometry.pruned", c("geometry.pruned")),
        (
            "geometry.avoided_frac",
            if candidates > 0.0 {
                1.0 - c("geometry.computed") / candidates
            } else {
                0.0
            },
        ),
        ("geometry.matrix_writes", c("geometry.matrix_writes")),
        ("geometry.order_writes", c("geometry.order_writes")),
        ("core.apply_self_ms", per_batch("core.apply", 1e6)),
        ("core.bubbles_touched", c("core.bubbles_touched")),
        ("core.slots_pushed", c("core.slots_pushed")),
        ("core.slots_removed", c("core.slots_removed")),
        ("store.wal_commit_ms", per_batch("store.wal_commit", 1e6)),
        ("store.fsyncs", c("store.fsyncs")),
        ("store.wal_bytes", c("store.wal_bytes")),
        ("store.checkpoint_bytes", c("store.checkpoint_bytes")),
        ("store.checkpoints", c("store.checkpoints")),
        ("store.rotations", c("store.rotations")),
        ("store.compactions", c("store.compactions")),
        ("store.reclaimed_bytes", c("store.reclaimed_bytes")),
        (
            "store.tier_hit_frac",
            frac(
                c("store.tier_hits"),
                c("store.tier_hits") + c("store.tier_misses"),
            ),
        ),
        ("store.cold_reads", c("store.cold_reads")),
        ("store.evictions", c("store.evictions")),
        ("store.recover_ms", per("store.recover", 1e6)),
        ("shard.submit_us", per("shard.submit", 1e3)),
        ("shard.drain_ms", per("shard.drain", 1e6)),
        ("shard.partition_skew", ctx.skew()),
        ("shard.queue_depth_max", c("shard.queue_depth_max")),
    ]
}

/// Peak resident set of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn bump(c: &mut Counts, k: &'static str, n: u64) {
    *c.entry(k).or_default() += n;
}

/// Adds one maintainer's seed-repair work and tier traffic to `c`.
pub fn maintainer_counts(
    store: &idb_store::PointStore,
    bubbles: &idb_core::IncrementalBubbles,
    c: &mut Counts,
) {
    let (matrix, repair) = bubbles.seed_repair_stats();
    bump(c, "geometry.matrix_writes", matrix.entries_written);
    bump(c, "geometry.order_writes", repair.order_entries);
    if let Some(t) = store.tier_counters() {
        bump(c, "store.tier_hits", t.hits);
        bump(c, "store.tier_misses", t.misses);
        bump(c, "store.cold_reads", t.cold_reads);
        bump(c, "store.evictions", t.evictions);
    }
}

/// Adds the program's own registry counters (search work, WAL
/// maintenance) to `c`; nothing when the registry is off.
pub fn registry_counts(obs: &Obs, c: &mut Counts) {
    if !obs.metrics_on() {
        return;
    }
    let m = obs.metrics();
    for (key, counter) in [
        ("geometry.computed", "assign.pruned.computed"),
        ("geometry.partial", "assign.pruned.partial"),
        ("geometry.pruned", "assign.pruned.pruned"),
        ("store.rotations", "wal.rotations"),
        ("store.compactions", "wal.compactions"),
        ("store.reclaimed_bytes", "wal.reclaimed_bytes"),
    ] {
        c.insert(key, m.counter(counter).get());
    }
}
