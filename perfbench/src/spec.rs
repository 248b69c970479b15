//! The benchmark's contract: workloads and metric tables, and the
//! `BENCHMARK.json` rendered from them (`perfbench --write-spec`), so the
//! names the harness prints and the names the spec declares cannot drift.

use std::fmt::Write as _;

/// One metric the harness reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 30;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper_d2",
        "paper's Complex d2 stream, 10k pts, s=200, 2% churn, in-memory WAL, epoch + poll per \
         batch: time lands in the delta epoch, checkpoints and merge/split; distances are cheap",
    ),
    (
        "bulk_d64",
        "clustered d64, 20k pts, s=200, 5% churn, Threads(2), in-memory media, epoch every 8 \
         batches: assignment kernels dominate; no fsync, rare delta epochs",
    ),
    (
        "fleet_d4",
        "8 Complex d4 streams, 16k pts, 8 partitions in 2 shards, cold tier at 1/5 hot, \
         single-file WAL, merged epoch per wave: shard drain, tier reads, merged delta",
    ),
];

/// The end-to-end metrics, reported by every untraced run. Timing bounds
/// sit at the 0.25 ceiling: on a shared 2-CPU host the quartile spread of
/// ten seeded runs is 0.04-0.2 for most of them and reaches 0.2-0.4 for
/// some p99s when the host is busy.
pub const END_TO_END: [Metric; 13] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("ack_p50_ms", "ms", "lower", 0.25),
    e2e("ack_p99_ms", "ms", "lower", 0.25),
    e2e("fresh_p50_ms", "ms", "lower", 0.25),
    e2e("fresh_p99_ms", "ms", "lower", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("read_p99_us", "us", "lower", 0.25),
    e2e("recovery_s", "s", "lower", 0.25),
    e2e("write_amp", "ratio", "lower", 0.1),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("fscore", "score", "higher", 0.05),
    e2e("ok_frac", "frac", "higher", 0.01),
];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Metric; 40] = [
    layer("bench.batch_ms", "ms", "lower"),
    layer("bench.residual_frac", "frac", "lower"),
    layer("obs.trace_overhead_pct", "%", "lower"),
    layer("delta.epoch_ms", "ms", "lower"),
    layer("delta.poll_us", "us", "lower"),
    layer("delta.rows_touched", "count", "lower"),
    layer("delta.rows_total", "count", "lower"),
    layer("delta.touched_frac", "frac", "lower"),
    layer("delta.deltas_emitted", "count", "lower"),
    layer("delta.tree_reused", "count", "higher"),
    layer("delta.tree_rebuilt", "count", "lower"),
    layer("delta.vs_scratch", "ratio", "lower"),
    layer("clustering.scratch_ms", "ms", "lower"),
    layer("geometry.search_ms", "ms", "lower"),
    layer("geometry.computed", "count", "lower"),
    layer("geometry.partial", "count", "lower"),
    layer("geometry.pruned", "count", "higher"),
    layer("geometry.avoided_frac", "frac", "higher"),
    layer("geometry.matrix_writes", "count", "lower"),
    layer("geometry.order_writes", "count", "lower"),
    layer("core.apply_self_ms", "ms", "lower"),
    layer("core.bubbles_touched", "count", "lower"),
    layer("core.slots_pushed", "count", "lower"),
    layer("core.slots_removed", "count", "lower"),
    layer("store.wal_commit_ms", "ms", "lower"),
    layer("store.fsyncs", "count", "lower"),
    layer("store.wal_bytes", "count", "lower"),
    layer("store.checkpoint_bytes", "count", "lower"),
    layer("store.checkpoints", "count", "lower"),
    layer("store.rotations", "count", "lower"),
    layer("store.compactions", "count", "lower"),
    layer("store.reclaimed_bytes", "count", "higher"),
    layer("store.tier_hit_frac", "frac", "higher"),
    layer("store.cold_reads", "count", "lower"),
    layer("store.evictions", "count", "lower"),
    layer("store.recover_ms", "ms", "lower"),
    layer("shard.submit_us", "us", "lower"),
    layer("shard.drain_ms", "ms", "lower"),
    layer("shard.partition_skew", "ratio", "lower"),
    layer("shard.queue_depth_max", "count", "lower"),
];

fn metric_json(out: &mut String, m: &Metric, last: bool) {
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name, m.unit, m.better
    );
    if let Some(b) = m.bound {
        let _ = write!(out, ", \"bound\": {b}");
    }
    out.push_str(if last { "}\n" } else { "},\n" });
}

/// The `BENCHMARK.json` document describing this harness.
#[must_use]
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        metric_json(&mut out, m, i + 1 == END_TO_END.len());
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        metric_json(&mut out, m, i + 1 == PER_LAYER.len());
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200, "why too long: {why}");
        }
        for m in END_TO_END {
            assert!(m.bound.unwrap() <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
