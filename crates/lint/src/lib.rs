//! `conn-lint` — domain-specific static analysis for the conn workspace.
//!
//! The workspace's kernels carry invariants the compiler cannot see:
//! distances must be ordered totally (NaN-safe), query paths must not
//! panic, kernels must stay deterministic (no wall clock, no ad-hoc
//! threads), the public API must be documented, and feature gates must
//! refer to declared features. This crate walks every workspace `.rs`
//! file with a small hand-rolled lexer ([`lexer`]) and enforces those
//! rules ([`rules`]) with `file:line` diagnostics.
//!
//! Suppression is explicit and greppable:
//!
//! * `// lint:allow(<rule>)` on the same or preceding line;
//! * `// lint:allow-file(<rule>): <justification>` for a whole file —
//!   the justification is mandatory;
//! * facets narrow a rule: `lint:allow(no-panic-in-query-path[index])`
//!   allows indexing but keeps unwrap/expect/panic enforcement;
//! * an allow that suppresses no diagnostic is itself a violation, so a
//!   marker cannot outlive the code it excused.
//!
//! Run it as `cargo run -p conn-lint` (exit 0 = clean, 1 = violations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod manifest;
pub mod rules;

pub use rules::{Diagnostic, RuleInfo, RULES};

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
///
/// `vendor/` holds API stand-ins for third-party crates (the build
/// environment is offline) — foreign code is not held to domain rules.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Lints every `.rs` file under `root` and returns the surviving
/// diagnostics, sorted by path then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut feature_cache: HashMap<PathBuf, HashSet<String>> = HashMap::new();
    let empty = HashSet::new();
    let mut diags = Vec::new();

    for file in &files {
        let src = fs::read_to_string(file)?;
        let rel = rel_path(root, file);
        let features: &HashSet<String> = match manifest::owning_crate_dir(root, file) {
            Some(dir) => {
                if !feature_cache.contains_key(&dir) {
                    let feats = manifest::crate_features(&dir)?;
                    feature_cache.insert(dir.clone(), feats);
                }
                &feature_cache[&dir]
            }
            None => &empty,
        };
        let lexed = lexer::lex(&src);
        let ctx = rules::FileContext::new(&rel, &lexed, features);
        diags.extend(rules::apply_allows(&ctx, rules::run_all(&ctx)));
    }

    diags.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(diags)
}

/// Formats one diagnostic the way the binary prints it.
pub fn render(d: &Diagnostic) -> String {
    format!("{}:{}: [{}] {}", d.path, d.line, d.code, d.message)
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose Cargo.toml contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
