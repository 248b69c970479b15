#!/usr/bin/env bash
# Full local CI gate: build, tests (in both parallelism modes and under
# every seed-search engine), crash-consistency suites, observability
# journal validation, lints, formatting, bench compilation.
#
# The tier-1 gate is `cargo build --release && cargo test -q` at the repo
# root; this script runs that plus the workspace-wide test suite — twice,
# once per parallel execution mode (the IDB_PARALLELISM default, see
# DESIGN.md §9), which must be observationally identical — the
# differential suites once per assignment engine (the IDB_SEED_SEARCH
# default, see DESIGN.md §10), which must be bit-identical — the
# durability suites (DESIGN.md §11) with a kill-at-random-crash-point
# smoke loop under varying seeds — the sharded-service differential and
# fault-isolation suites under an ambient IDB_SHARDS=4 plus a smoke run
# of the shard report (DESIGN.md §13) — the delta-clustering equivalence
# and subscription suites with journaling on (DESIGN.md §14) — the
# end-to-end benchmark's own test suite — the differential and durability
# suites once more with JSONL journaling on (DESIGN.md §12), every
# emitted journal validated by the journal_check tool — the kernel report
# with its 1.5x speedup floor plus a guarded target-cpu=native re-run of
# the kernel-sensitive suites (DESIGN.md §15) — clippy across the whole
# workspace with warnings promoted to errors, a formatting check, and a
# compile check of the criterion benches.
#
# Set CARGOFLAGS to pass extra flags to every cargo invocation (e.g.
# CARGOFLAGS="--config /path/to/offline-overrides.toml" in air-gapped
# environments; the flags go after the subcommand so they reach external
# subcommands like clippy too).
set -euo pipefail
cd "$(dirname "$0")"
CARGOFLAGS=${CARGOFLAGS:-}

# Hermetic scratch space: file-backed durability tests honor IDB_WAL_DIR
# (FileSink fixtures, the crash smoke test, the durability bench), and
# JSONL op journals land under IDB_OBS_DIR. Both are throwaway.
IDB_WAL_DIR="$(mktemp -d)"
IDB_OBS_DIR="$(mktemp -d)"
export IDB_WAL_DIR IDB_OBS_DIR
trap 'rm -rf "$IDB_WAL_DIR" "$IDB_OBS_DIR"' EXIT

# shellcheck disable=SC2086  # CARGOFLAGS is intentionally word-split.
cargo build $CARGOFLAGS --release
IDB_PARALLELISM=serial cargo test $CARGOFLAGS -q
IDB_PARALLELISM=serial cargo test $CARGOFLAGS -q --workspace
IDB_PARALLELISM=auto cargo test $CARGOFLAGS -q
IDB_PARALLELISM=auto cargo test $CARGOFLAGS -q --workspace
# Re-run the equivalence suites with each engine as the config default:
# tests that don't pin an engine must pass — and agree — under all three.
for engine in brute pruned kdtree; do
    IDB_SEED_SEARCH="$engine" cargo test $CARGOFLAGS -q -p idb-geometry --test differential
    IDB_SEED_SEARCH="$engine" cargo test $CARGOFLAGS -q -p idb-core --test differential
    IDB_SEED_SEARCH="$engine" cargo test $CARGOFLAGS -q -p idb-core --test properties
done
# Durability: the full crash-consistency differential suite and the
# hostile-input corpus, then the file-backed kill-at-random-crash-point
# smoke under a few distinct seeds (each seed picks a different scenario
# and crash byte).
cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency
cargo test $CARGOFLAGS -q -p idb-store --test hardening
for crash_seed in 11 1986 777216; do
    IDB_CRASH_SEED="$crash_seed" cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency \
        kill_at_random_crash_point_smoke
done
# Bounded storage (DESIGN.md §16): the differential, crash-consistency,
# fault-injection and hardening suites again under a tiny ambient segment
# budget and a finite disk budget in a hermetic WAL dir — rotation,
# compaction and budget enforcement must never change an outcome (suites
# that exercise the knobs pin their own values).
IDB_BUDGET_WAL_DIR="$(mktemp -d)"
IDB_WAL_SEGMENT_BYTES=2048 IDB_DISK_BUDGET=1048576 IDB_WAL_DIR="$IDB_BUDGET_WAL_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test differential
IDB_WAL_SEGMENT_BYTES=2048 IDB_DISK_BUDGET=1048576 IDB_WAL_DIR="$IDB_BUDGET_WAL_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency
IDB_WAL_SEGMENT_BYTES=2048 IDB_DISK_BUDGET=1048576 IDB_WAL_DIR="$IDB_BUDGET_WAL_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test fault_injection
IDB_WAL_SEGMENT_BYTES=2048 IDB_DISK_BUDGET=1048576 IDB_WAL_DIR="$IDB_BUDGET_WAL_DIR" \
    cargo test $CARGOFLAGS -q -p idb-store --test hardening
rm -rf "$IDB_BUDGET_WAL_DIR"
# Tiered point store (DESIGN.md §17): the differential, crash-consistency
# and fault-injection suites again with an ambient 256-point hot budget
# and a hermetic file-backed cold spill dir — demand fetch, clock
# eviction and cold rewrites must never change an outcome (suites that
# exercise the tier pin their own budgets).
IDB_TIER_COLD_DIR="$(mktemp -d)"
IDB_HOT_POINTS=256 IDB_COLD_DIR="$IDB_TIER_COLD_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test differential
IDB_HOT_POINTS=256 IDB_COLD_DIR="$IDB_TIER_COLD_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency
IDB_HOT_POINTS=256 IDB_COLD_DIR="$IDB_TIER_COLD_DIR" \
    cargo test $CARGOFLAGS -q -p idb-core --test fault_injection
rm -rf "$IDB_TIER_COLD_DIR"
# Sharded service layer (DESIGN.md §13): the shard-count differential
# suite and the quarantine/crash fault-isolation suite, run under
# IDB_SHARDS=4 as the ambient default (the suites pin their own shard
# counts where the contract demands it — the knob must never change an
# outcome) with a hermetic per-partition WAL directory, plus the
# IDB_SHARDS parser cases with the variable unset.
IDB_SHARD_WAL_DIR="$(mktemp -d)"
IDB_SHARDS=4 IDB_WAL_DIR="$IDB_SHARD_WAL_DIR" cargo test $CARGOFLAGS -q -p idb-shard --test differential
IDB_SHARDS=4 IDB_WAL_DIR="$IDB_SHARD_WAL_DIR" cargo test $CARGOFLAGS -q -p idb-shard --test fault_isolation
cargo test $CARGOFLAGS -q -p idb-shard --test env_knob
# shellcheck disable=SC2086
cargo run $CARGOFLAGS --release -q -p idb-bench --bin shard_report -- "$IDB_SHARD_WAL_DIR/BENCH_shard_smoke.json"
rm -rf "$IDB_SHARD_WAL_DIR"
# Delta-maintained clustering (DESIGN.md §14): the bit-identity
# equivalence suite and the subscription delivery contract under the
# ambient parallelism/shard/journal knobs — the engines pick up
# IDB_OBS=jsonl, so the DeltaEpoch events they emit land in journals the
# journal_check run below validates (touched <= total per epoch) — plus
# the 64-seed metric determinism pin.
IDB_PARALLELISM=auto IDB_SHARDS=4 IDB_OBS=jsonl cargo test $CARGOFLAGS -q -p idb-delta
cargo test $CARGOFLAGS -q -p idb-eval --test determinism
# The end-to-end benchmark (perfbench/, a workspace of its own) drives
# the library's public entry points; its tests run short workloads
# through the full verification, so a library change that breaks the
# benchmark fails here.
cargo test $CARGOFLAGS --release -q --offline --manifest-path perfbench/Cargo.toml
# Observability: the differential and durability suites once more with
# JSONL journaling on, writing into the hermetic IDB_OBS_DIR, then every
# emitted journal is parsed and checked against the op-journal invariants
# (split pairing, batch accounting, non-empty commit groups).
IDB_OBS=jsonl cargo test $CARGOFLAGS -q -p idb-core --test differential
IDB_OBS=jsonl cargo test $CARGOFLAGS -q -p idb-core --test crash_consistency
IDB_OBS=jsonl cargo test $CARGOFLAGS -q -p idb-core --test fault_injection
cargo run $CARGOFLAGS --release -q -p idb-bench --bin journal_check -- "$IDB_OBS_DIR"
# Kernel & memory layout (DESIGN.md §15): the kernel report measures the
# canonical 4-lane kernels against the retained metric::scalar baseline
# and fails below the 1.5x speedup floor at d >= 64; its self-checks also
# exercise the incremental matrix/order-repair counters end to end.
KERNEL_SMOKE_DIR="$(mktemp -d)"
# shellcheck disable=SC2086
cargo run $CARGOFLAGS --release -q -p idb-bench --bin kernel_report -- "$KERNEL_SMOKE_DIR/BENCH_kernel_smoke.json"
rm -rf "$KERNEL_SMOKE_DIR"
# Bit-identity must survive wider codegen: re-run the kernel property
# suite and the re-baseline audit with the host's full instruction set.
# Guarded — skipped with a notice when the toolchain/target rejects the
# flag (e.g. cross-compilation or unsupported CPUs).
if RUSTFLAGS="-C target-cpu=native" cargo check $CARGOFLAGS -q -p idb-geometry 2>/dev/null; then
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-geometry --test kernels
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-geometry --test differential
    RUSTFLAGS="-C target-cpu=native" cargo test $CARGOFLAGS -q -p idb-delta --test rebaseline_audit
else
    echo "ci: target-cpu=native unsupported here; skipping native-codegen pass"
fi
# Lint every workspace crate's lib, bins and tests (bench targets need
# the real criterion crate and are compile-checked separately below).
cargo clippy $CARGOFLAGS --workspace --lib --bins --tests -- -D warnings
cargo fmt --check
cargo bench $CARGOFLAGS --no-run

echo "ci: all green"
