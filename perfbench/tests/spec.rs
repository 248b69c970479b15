//! The committed `BENCHMARK.json` is exactly what the harness's own
//! metric tables render (`perfbench --write-spec BENCHMARK.json`).

#[test]
fn committed_spec_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        perfbench::spec::benchmark_json(),
        "regenerate with `cargo run --release -- --write-spec ../BENCHMARK.json`"
    );
}
