//! End-to-end benchmark of the incremental data-bubble service: batch
//! submit → durable ack → summarization → clustering delta delivered to a
//! subscriber, plus read probes, recovery, and output checks, over three
//! named workloads. See `README.md` for what each workload and metric is
//! for.

pub mod fleet;
pub mod media;
pub mod run;
pub mod single;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verify;

use idb_obs::Obs;
use run::{measure, Ctx, Plan, RunOutput};
use std::path::PathBuf;

/// Command-line options of one invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable media, cold tiers and span dumps.
    pub work_dir: PathBuf,
}

/// `(warm-up cycles, count-window cycles)` per workload. Recovery is
/// measured where the window closes; warm-up plus window ends half-way
/// between two 64-batch checkpoints, so recovery replays a 32-batch tail.
/// After recovery the warm-up runs again, unrecorded.
fn cadence(workload: &str) -> Option<(u64, u64)> {
    match workload {
        // One batch per cycle: 64 + 288 = 352 batches.
        "paper_d2" => Some((64, 288)),
        // Eight batches per cycle: (2 + 18) * 8 = 160 batches.
        "bulk_d64" => Some((2, 18)),
        // Each partition takes ~8 sub-batches per wave: ~(24 + 36) * 8 =
        // 480. The warm-up fills the hot tiers (reads never promote; ~20
        // inserts land per partition per wave against a 400-point budget).
        "fleet_d4" => Some((24, 36)),
        _ => None,
    }
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Report {
    pub run: RunOutput,
    pub setup: Vec<f64>,
    /// The traced run, when `--trace 1`.
    pub traced: Option<RunOutput>,
}

/// One run of `opts.workload`, traced or not.
///
/// # Errors
/// An unknown workload, or a system that cannot be set up.
pub fn run_once(opts: &Opts, traced: bool) -> Result<(RunOutput, Vec<f64>), String> {
    let (warmup, window) =
        cadence(&opts.workload).ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let plan = Plan {
        seconds: opts.seconds,
        warmup,
        window,
    };
    let obs = if traced {
        Obs::metrics_only()
    } else {
        Obs::disabled()
    };
    let seed = opts.seed;
    let (out, setup, ctx) = match opts.workload.as_str() {
        "paper_d2" => {
            let spec = &single::PAPER_D2;
            let mut ctx = Ctx::new(obs, spec.dim, seed);
            let (mut sys, setup) = single::setup(spec, seed, &mut ctx)?;
            (measure(&mut sys, &mut ctx, &plan, traced), setup, ctx)
        }
        "bulk_d64" => {
            let spec = &single::BULK_D64;
            let mut ctx = Ctx::new(obs, spec.dim, seed);
            let (mut sys, setup) = single::setup(spec, seed, &mut ctx)?;
            (measure(&mut sys, &mut ctx, &plan, traced), setup, ctx)
        }
        _ => {
            let mut ctx = Ctx::new(obs, 4, seed);
            let (mut sys, setup) = fleet::setup(seed, &mut ctx)?;
            (measure(&mut sys, &mut ctx, &plan, traced), setup, ctx)
        }
    };
    if traced {
        let path = opts
            .work_dir
            .join(format!("spans-{}-{seed}.jsonl", opts.workload));
        ctx.trace
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok((out, setup))
}

/// The untraced run, and with `opts.trace` the traced run after it.
///
/// # Errors
/// As [`run_once`].
pub fn execute(opts: &Opts) -> Result<Report, String> {
    let (run, setup) = run_once(opts, false)?;
    let traced = if opts.trace {
        Some(run_once(opts, true)?.0)
    } else {
        None
    };
    Ok(Report { run, setup, traced })
}

/// `(name, unit, value)` of every metric the invocation reports, in the
/// spec's order: end-to-end metrics untraced, per-layer metrics traced.
#[must_use]
pub fn metrics(report: &Report) -> Vec<(&'static str, &'static str, f64)> {
    match &report.traced {
        None => spec::END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "setup_s" {
                    stats::median(&report.setup)
                } else {
                    lookup(&report.run.e2e, m.name)
                };
                (m.name, m.unit, v)
            })
            .collect(),
        Some(t) => spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = if m.name == "obs.trace_overhead_pct" {
                    100.0 * (report.run.ops_per_s - t.ops_per_s) / report.run.ops_per_s
                } else {
                    lookup(&t.layer, m.name)
                };
                (m.name, m.unit, v)
            })
            .collect(),
    }
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} not computed"), |v| v.1)
}
