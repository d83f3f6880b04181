//! Self-test required by the acceptance criteria: the lint binary must
//! exit non-zero with `file:line` diagnostics on a seeded violation
//! fixture, and exit 0 on the real workspace tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a throwaway mini-workspace whose single crate sits at
/// `crates/core` so the path-scoped rules apply, seeded with one violation
/// of every rule at a known line.
fn write_fixture(dir: &Path) {
    fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir fixture");
    fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/core\"]\n",
    )
    .expect("write root manifest");
    fs::write(
        dir.join("crates/core/Cargo.toml"),
        "[package]\nname = \"fixture-core\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         \n[features]\ndeclared = []\n",
    )
    .expect("write crate manifest");
    // Line numbers below are asserted on — keep them stable.
    let src = "\
fn naked(x: Option<u32>) -> u32 { x.unwrap() }                          // line 1
fn cmp(a: f64, b: f64) { let _ = a.partial_cmp(&b); }                   // line 2
fn idx(v: &[u32]) -> u32 { v[0] }                                       // line 3
fn clock() { let _ = std::time::Instant::now(); }                       // line 4
fn threads() { std::thread::spawn(|| {}); }                             // line 5
#[cfg(feature = \"undeclared\")]
fn gated() {}
fn boom() { panic!(\"no\") }
fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }
#[cfg(feature = \"declared\")]
fn fine() {}
";
    fs::write(dir.join("crates/core/src/lib.rs"), src).expect("write fixture source");
    // The shared R*-tree regrowing its page counters and buffer lock.
    fs::create_dir_all(dir.join("crates/index/src")).expect("mkdir index fixture");
    let tree = "\
pub struct RStarTree {
    reads: std::cell::Cell<u64>,                                        // line 2
    buffer: std::sync::Mutex<Vec<u32>>,                                 // line 3
    len: usize,
}
";
    fs::write(dir.join("crates/index/src/tree.rs"), tree).expect("write tree fixture");
}

fn fixture_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("conn-lint-selftest-{}-{tag}", std::process::id()))
}

#[test]
fn binary_flags_seeded_fixture_with_file_line_diagnostics() {
    let dir = fixture_dir("seeded");
    let _ = fs::remove_dir_all(&dir);
    write_fixture(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_conn-lint"))
        .arg(&dir)
        .output()
        .expect("run conn-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert!(
        !out.status.success(),
        "lint must exit non-zero on the fixture; stdout:\n{stdout}"
    );
    for expected in [
        "crates/core/src/lib.rs:1: [no-panic-in-query-path[unwrap]]",
        "crates/core/src/lib.rs:2: [no-naked-float-cmp]",
        "crates/core/src/lib.rs:3: [no-panic-in-query-path[index]]",
        "crates/core/src/lib.rs:4: [no-wallclock-in-kernels]",
        "crates/core/src/lib.rs:5: [no-thread-spawn-outside-pool]",
        "crates/core/src/lib.rs:6: [feature-gate-hygiene]",
        "crates/core/src/lib.rs:8: [no-panic-in-query-path[panic]]",
        "crates/index/src/tree.rs:2: [no-interior-mutability-in-service[cell]]",
        "crates/index/src/tree.rs:3: [no-interior-mutability-in-service[lock]]",
    ] {
        assert!(
            stdout.contains(expected),
            "missing `{expected}` in:\n{stdout}"
        );
    }
    // The compliant lines must stay silent.
    assert!(
        !stdout.contains("lib.rs:9:"),
        "unwrap_or wrongly flagged:\n{stdout}"
    );
    assert!(
        !stdout.contains("lib.rs:10:"),
        "declared feature wrongly flagged:\n{stdout}"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn allows_suppress_and_unjustified_file_allow_is_flagged() {
    let dir = fixture_dir("allows");
    let _ = fs::remove_dir_all(&dir);
    write_fixture(&dir);
    let src = "\
// lint:allow-file(no-panic-in-query-path[index]): fixture-wide exemption test
fn idx(v: &[u32]) -> u32 { v[0] }
// lint:allow(no-panic-in-query-path)
fn naked(x: Option<u32>) -> u32 { x.unwrap() }
// lint:allow-file(no-naked-float-cmp)
fn cmp(a: f64, b: f64) { let _ = a.partial_cmp(&b); }
// lint:allow(no-wallclock-in-kernels)
fn clock_was_here() {}
";
    fs::write(dir.join("crates/core/src/lib.rs"), src).expect("overwrite fixture source");

    let out = Command::new(env!("CARGO_BIN_EXE_conn-lint"))
        .arg(&dir)
        .output()
        .expect("run conn-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert!(!stdout.contains("[index]"), "file allow failed:\n{stdout}");
    assert!(!stdout.contains("[unwrap]"), "line allow failed:\n{stdout}");
    // The justification-less allow-file is rejected: hygiene finding plus
    // the float-cmp violation it failed to suppress.
    assert!(
        stdout.contains("[lint-allow-hygiene]"),
        "no hygiene finding:\n{stdout}"
    );
    assert!(
        stdout.contains("[no-naked-float-cmp]"),
        "bad allow suppressed:\n{stdout}"
    );
    // An allow whose subject is gone is reported where it stands; the two
    // allows that do suppress something are not.
    assert!(
        stdout.contains(
            "crates/core/src/lib.rs:7: [lint-allow-hygiene] \
             lint:allow(no-wallclock-in-kernels) suppresses no diagnostic"
        ),
        "stale allow not reported:\n{stdout}"
    );
    assert_eq!(stdout.matches("suppresses no diagnostic").count(), 1);
    assert!(!out.status.success());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let diags = conn_lint::lint_workspace(root).expect("lint workspace");
    let rendered: Vec<String> = diags.iter().map(conn_lint::render).collect();
    assert!(
        diags.is_empty(),
        "workspace must be lint-clean, found {}:\n{}",
        diags.len(),
        rendered.join("\n")
    );
}
