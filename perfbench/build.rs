//! Stamps build provenance (compiler version, source revision) into the
//! binary so every result line can name what produced it.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let revision = run("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_REVISION={revision}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp when the checked-out revision moves; only name files that
    // exist, or cargo would rerun this script on every build.
    for head in ["../.git/HEAD", "../.git/index"] {
        if Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
