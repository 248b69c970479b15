//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload closed-loop and prints every metric by name and unit,
//! then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! an untraced and then a traced run execute and the metrics are the
//! per-layer ones. Exits 1 when an output check fails, 2 on a usage or
//! set-up error.
//!
//! `--write-spec <path>` writes `BENCHMARK.json` instead. Durable media,
//! cold tiers and span dumps go under `.perfbench/` in the working
//! directory.

use perfbench::{execute, metrics, spec, Opts, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         | --write-spec <path>",
        spec::WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Result<Opts, PathBuf>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => {
                let v = value()?;
                seconds = Some(v.parse::<f64>().map_err(|_| format!("bad seconds {v:?}"))?);
            }
            "--trace" => trace = Some(num(value()?)? != 0),
            "--write-spec" => return Ok(Err(PathBuf::from(value()?))),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
        work_dir: PathBuf::from(".perfbench"),
    }))
}

/// Pins the ambient knobs no config reaches: `IDB_OBS` would make every
/// maintainer build journal into a file, and the cold tier's directory
/// comes only from `IDB_COLD_DIR`. Every other `IDB_*` knob is overridden
/// by the explicit configs each workload builds. Returns the names of the
/// `IDB_*` variables that were set on entry.
fn pin_env(cold_dir: &Path) -> Vec<String> {
    let seen: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IDB_"))
        .collect();
    std::env::remove_var("IDB_OBS");
    std::env::remove_var("IDB_OBS_DIR");
    std::env::set_var(idb_store::COLD_DIR_ENV, cold_dir);
    seen
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance(opts: &Opts, report: &Report, ambient: &[String]) -> String {
    let run = report.traced.as_ref().unwrap_or(&report.run);
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut samples = String::new();
    for (i, (name, n, beyond)) in run.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            samples,
            "{sep}\"{name}\": {{\"n\": {n}, \"beyond_p99\": {beyond}}}"
        );
    }
    format!(
        "{{\"host_cpus\": {cpus}, \"rustc\": {}, \"revision\": {}, \"seed\": {}, \
         \"run_seconds\": {}, \"measured_s\": {}, \"cycles\": {}, \"batches\": {}, \
         \"samples\": {{{samples}}}, \"ack_fresh_clock\": \"process_cpu\", \"setup_reps\": {}, \
         \"ambient_idb_vars\": [{}]}}",
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_REVISION")),
        opts.seed,
        opts.seconds,
        run.measured_s,
        run.cycles,
        run.batches,
        report.setup.len(),
        ambient
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(Ok(opts)) => opts,
        Ok(Err(path)) => {
            return match std::fs::write(&path, spec::benchmark_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => usage(&format!("writing {}: {e}", path.display())),
            };
        }
        Err(e) => return usage(&e),
    };
    let run_dir = opts.work_dir.join(format!("run-{}", std::process::id()));
    let cold_dir = run_dir.join("cold");
    if let Err(e) = std::fs::create_dir_all(&cold_dir) {
        return usage(&format!("creating {}: {e}", cold_dir.display()));
    }
    let ambient = pin_env(&cold_dir);
    let opts_run = Opts {
        work_dir: run_dir.clone(),
        ..opts.clone()
    };
    let result = execute(&opts_run);
    // Durable media and cold tiers are scratch; span dumps are kept.
    if let Ok(entries) = std::fs::read_dir(&run_dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                let _ = std::fs::remove_dir_all(&p);
            } else if p.extension().is_some_and(|x| x == "jsonl") {
                let _ = std::fs::rename(&p, opts.work_dir.join(e.file_name()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("config: {}", report.run.config);
    if let Some(t) = &report.traced {
        println!("traced config: {}", t.config);
    }
    println!("provenance: {}", provenance(&opts, &report, &ambient));
    let mut errors: Vec<String> = report.run.errors.clone();
    if let Some(t) = &report.traced {
        errors.extend(t.errors.iter().map(|e| format!("traced run: {e}")));
        let counts: Vec<String> = t
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("counts: {{{}}}", counts.join(", "));
    }
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics(&report).into_iter().enumerate() {
        let value = if value.is_finite() {
            value
        } else {
            errors.push(format!("metric {name} is not finite"));
            0.0
        };
        println!("  {name:<24} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let (attempted, failed) = report
        .traced
        .iter()
        .fold((report.run.attempted, report.run.failed), |(a, f), t| {
            (a + t.attempted, f + t.failed)
        });
    println!(
        "failed_frac: {} ({failed} of {attempted} batches and read probes)",
        failed as f64 / attempted.max(1) as f64
    );
    if errors.is_empty() {
        println!("verification: ok");
    } else {
        for e in &errors {
            println!("verification FAILED: {e}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        errors.is_empty(),
        attempted.max(1)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
