//! The repository's one benchmark (`ledger/`, declared by `BENCHMARK.json`)
//! is a package of its own, outside this workspace, so `cargo build` and
//! `cargo test` from the root never compile it. This test does: a green
//! tier-1 run means the ledger still builds against the public API of
//! geom / index / vgraph / datasets / core.

use std::path::Path;
use std::process::Command;

#[test]
fn ledger_builds_against_the_public_api() {
    let ledger = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ledger");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["check", "--locked", "--offline", "--manifest-path"])
        .arg(ledger.join("Cargo.toml"))
        // the ledger's own target directory, whatever the outer run uses
        .env("CARGO_TARGET_DIR", ledger.join("target"))
        .output()
        .expect("cargo is runnable");
    assert!(
        out.status.success(),
        "the ledger no longer builds:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
