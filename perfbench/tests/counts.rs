//! Exact per-layer counts repeat: under hostile `IDB_*` knobs, across two
//! runs of one seed, and a second seed still passes verification. Each
//! case runs the real binary on a short traced run of every workload.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper_d2", "bulk_d64", "fleet_d4"];

/// Every `IDB_*` knob the library reads, set to a value that would change
/// a workload if it leaked through.
const HOSTILE: [(&str, &str); 10] = [
    ("IDB_PARALLELISM", "3"),
    ("IDB_SEED_SEARCH", "brute"),
    ("IDB_OBS", "jsonl"),
    ("IDB_DISK_BUDGET", "4096"),
    ("IDB_HOT_POINTS", "7"),
    ("IDB_COLD_DIR", "/nonexistent/cold"),
    ("IDB_SHARDS", "8"),
    ("IDB_WAL_SEGMENT_BYTES", "64"),
    ("IDB_WAL_DIR", "/nonexistent/wal"),
    ("IDB_OBS_DIR", "/nonexistent/obs"),
];

struct Outcome {
    correct: bool,
    counts: BTreeMap<String, u64>,
}

/// Runs the binary traced with `args`; `env` adds variables to an
/// environment cleared of every `IDB_*` knob.
fn run(workload: &str, seed: u64, args: &[&str], env: &[(&str, &str)]) -> Outcome {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "1",
    ])
    .args(args)
    .current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (k, _) in std::env::vars() {
        if k.starts_with("IDB_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let counts_line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counts: "))
        .expect("a counts line");
    let counts = counts_line
        .trim_matches(|c| c == '{' || c == '}')
        .split(", ")
        .map(|kv| {
            let (k, v) = kv.split_once(": ").expect("key: value");
            (
                k.trim_matches('"').to_string(),
                v.parse().expect("integer count"),
            )
        })
        .collect();
    let last = stdout.lines().last().expect("a result line");
    Outcome {
        correct: last.starts_with("{\"correct\": true,"),
        counts,
    }
}

/// A timed run of zero seconds: it stops once the count window is full,
/// after the freeze, recovery check and rebuild that close it.
const SHORTEST: [&str; 2] = ["--seconds", "0"];

#[test]
fn hostile_knobs_leave_exact_counts_unchanged() {
    for w in WORKLOADS {
        let clean = run(w, 11, &SHORTEST, &[]);
        let hostile = run(w, 11, &SHORTEST, &HOSTILE);
        assert!(clean.correct && hostile.correct, "{w}: verification failed");
        assert!(
            clean.counts.values().any(|&v| v > 0),
            "{w}: nothing counted"
        );
        assert_eq!(clean.counts, hostile.counts, "{w}: an ambient knob leaked");
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_seed_verifies() {
    for w in WORKLOADS {
        let a = run(w, 21, &SHORTEST, &[]);
        let b = run(w, 21, &SHORTEST, &[]);
        assert!(a.correct && b.correct, "{w}: verification failed");
        assert_eq!(
            a.counts, b.counts,
            "{w}: counts differ between runs of one seed"
        );
        let other = run(w, 22, &SHORTEST, &[]);
        assert!(other.correct, "{w}: second seed failed verification");
        assert_ne!(
            a.counts, other.counts,
            "{w}: a different seed gave identical counts"
        );
    }
}
