//! The rule catalog.
//!
//! Each rule is a function over one lexed file plus its workspace context.
//! Rules emit [`Diagnostic`]s; suppression via `lint:allow` comments is
//! applied centrally by [`apply_allows`], so rules stay oblivious to it.

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::HashSet;

/// One lint finding, pointing at a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule code, optionally with a `[facet]` suffix
    /// (e.g. `no-panic-in-query-path[index]`).
    pub code: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Static description of a rule, for `--list-rules` and the README.
pub struct RuleInfo {
    /// Rule code as used in diagnostics and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary of what it enforces and where.
    pub summary: &'static str,
}

/// The full catalog, in evaluation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-naked-float-cmp",
        summary: "raw partial_cmp on distances is forbidden outside conn_geom::approx — \
                  route orderings through OrdF64 (total order); the PartialOrd-delegates-\
                  to-Ord idiom `Some(self.cmp(other))` is recognized and allowed",
    },
    RuleInfo {
        name: "no-panic-in-query-path",
        summary: "unwrap/expect (facets [unwrap]/[expect]), panic!-family macros \
                  ([panic]) and slice indexing ([index]) are forbidden in non-test code \
                  of crates/{core,vgraph,index} — route failures through conn::Error",
    },
    RuleInfo {
        name: "no-thread-spawn-outside-pool",
        summary: "std::thread::spawn is only allowed in crates/core/src/pool.rs (the \
                  worker-engine pool) — everything else must go through the pool",
    },
    RuleInfo {
        name: "no-interior-mutability-in-service",
        summary: "in the serving layer (core::{service,epoch,admission}) and the shared \
                  R*-tree it serves from (index::{tree,node,query}) the cell family \
                  (RefCell/Cell/OnceCell/UnsafeCell, facet [cell]) is banned — use epoch \
                  snapshots / OnceLock, and caller-owned IoMeters for page accounting; \
                  locks (Mutex/RwLock, facet [lock]) need a lint:allow justification \
                  naming the bounded critical section",
    },
    RuleInfo {
        name: "no-wallclock-in-kernels",
        summary: "Instant::now / SystemTime::now are only allowed in crates/bench and \
                  crates/core/src/stats.rs — kernels must stay deterministic and \
                  timing-free",
    },
    RuleInfo {
        name: "pub-api-documented",
        summary: "every plain `pub fn` in the facade (src/lib.rs) and in \
                  core::{query,service} must carry a doc comment",
    },
    RuleInfo {
        name: "feature-gate-hygiene",
        summary: "every cfg(feature = \"…\") name must be declared in the owning \
                  crate's Cargo.toml [features] table",
    },
    RuleInfo {
        name: "no-full-rebuild-in-delta-path",
        summary: "cold-build entry points (bulk_load, VisGraph::new, Scene::new) are \
                  banned in crates/core/src/live.rs — the delta path must repair resident \
                  substrates in place and derive epochs by structural sharing; \
                  construction-time cold builds need an inline lint:allow justification \
                  (a cold search start is not a rebuild: every search over a changed \
                  graph starts cold)",
    },
    RuleInfo {
        name: "lint-allow-hygiene",
        summary: "file-scoped allows (`lint:allow-file(rule): why`) must carry a \
                  non-empty justification after the closing paren, and every allow \
                  (line or file scope) must suppress at least one diagnostic",
    },
];

/// Everything a rule needs to know about one source file.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// Lexed token stream + allow markers.
    pub lexed: &'a Lexed,
    /// Per-token flag: token is inside `#[cfg(test)]` / `#[test]` code.
    pub test_mask: Vec<bool>,
    /// Whole file is test/bench/example scaffolding (`tests/`, `benches/`,
    /// `examples/` directories).
    pub file_is_test: bool,
    /// `[features]` names declared by the owning crate's Cargo.toml.
    pub declared_features: &'a HashSet<String>,
}

impl<'a> FileContext<'a> {
    /// Builds the context, computing the test mask from the token stream.
    pub fn new(
        rel_path: &'a str,
        lexed: &'a Lexed,
        declared_features: &'a HashSet<String>,
    ) -> Self {
        let file_is_test = ["tests/", "benches/", "examples/"]
            .iter()
            .any(|d| rel_path.contains(&format!("/{d}")) || rel_path.starts_with(d));
        let test_mask = compute_test_mask(&lexed.tokens);
        FileContext {
            rel_path,
            lexed,
            test_mask,
            file_is_test,
            declared_features,
        }
    }

    fn toks(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// True when token `i` sits in test code (file-level or `cfg(test)`).
    fn in_test(&self, i: usize) -> bool {
        self.file_is_test || self.test_mask.get(i).copied().unwrap_or(false)
    }

    fn diag(&self, out: &mut Vec<Diagnostic>, line: u32, code: &str, message: &str) {
        out.push(Diagnostic {
            path: self.rel_path.to_string(),
            line,
            code: code.to_string(),
            message: message.to_string(),
        });
    }
}

/// Marks every token covered by a `#[cfg(test)]` or `#[test]` item.
///
/// Strategy: when such an attribute is seen, the following item (after any
/// further attributes and doc comments) is masked up to either its matching
/// close brace or a top-level `;`.
fn compute_test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            let close = match matching(toks, i + 1, "[", "]") {
                Some(c) => c,
                None => break,
            };
            if attr_marks_test(&toks[i + 2..close]) {
                let end = item_end(toks, close + 1);
                for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Does `#[ … ]` content mark a test item? Covers `test`, `cfg(test)`,
/// `cfg(all(test, …))`, `bench`, `cfg(any(test, …))`.
fn attr_marks_test(inner: &[Token]) -> bool {
    let first_is_carrier = inner
        .first()
        .map(|t| t.is_ident("test") || t.is_ident("cfg") || t.is_ident("bench"))
        .unwrap_or(false);
    first_is_carrier
        && inner
            .iter()
            .any(|t| t.is_ident("test") || t.is_ident("bench"))
}

/// Index one past the end of the item starting at `start` (skipping leading
/// attributes/docs): past the matching `}` of its body, or past a top-level
/// `;` for braceless items.
fn item_end(toks: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip stacked attributes and doc comments before the item keyword.
    loop {
        if i < toks.len() && toks[i].kind == TokKind::Doc {
            i += 1;
            continue;
        }
        if i + 1 < toks.len() && toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
            match matching(toks, i + 1, "[", "]") {
                Some(c) => {
                    i = c + 1;
                    continue;
                }
                None => return toks.len(),
            }
        }
        break;
    }
    let mut depth_paren = 0i32;
    let mut depth_brack = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth_paren += 1,
                ")" => depth_paren -= 1,
                "[" => depth_brack += 1,
                "]" => depth_brack -= 1,
                "{" if depth_paren == 0 && depth_brack == 0 => {
                    return matching(toks, i, "{", "}")
                        .map(|c| c + 1)
                        .unwrap_or(toks.len());
                }
                ";" if depth_paren == 0 && depth_brack == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// Index of the punct matching `open` at position `at` (which must hold an
/// `open` punct), honoring nesting.
fn matching(toks: &[Token], at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_naked_float_cmp(ctx, &mut out);
    no_panic_in_query_path(ctx, &mut out);
    no_thread_spawn_outside_pool(ctx, &mut out);
    no_interior_mutability_in_service(ctx, &mut out);
    no_wallclock_in_kernels(ctx, &mut out);
    pub_api_documented(ctx, &mut out);
    feature_gate_hygiene(ctx, &mut out);
    no_full_rebuild_in_delta_path(ctx, &mut out);
    out
}

/// Filters diagnostics through the file's `lint:allow` markers and emits
/// `lint-allow-hygiene` findings for the markers themselves: a file-scope
/// allow without a justification, and any allow that suppressed nothing
/// (its subject was deleted or moved — the marker must go with it).
pub fn apply_allows(ctx: &FileContext<'_>, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let allows = &ctx.lexed.allows;
    let mut used = vec![false; allows.len()];
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            let mut suppressed = false;
            for (a, used) in allows.iter().zip(&mut used) {
                let target_hits = a.target == d.code
                    || d.code
                        .split_once('[')
                        .map(|(base, _)| a.target == base)
                        .unwrap_or(false);
                let scope_hits = if a.file_scope {
                    a.justified
                } else {
                    a.line == d.line || a.line + 1 == d.line
                };
                if target_hits && scope_hits {
                    *used = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    for (a, used) in allows.iter().zip(used) {
        if a.file_scope && !a.justified {
            ctx.diag(
                &mut out,
                a.line,
                "lint-allow-hygiene",
                "lint:allow-file(...) must carry a justification: \
                 `// lint:allow-file(rule): <why this whole file is exempt>`",
            );
        } else if !used {
            ctx.diag(
                &mut out,
                a.line,
                "lint-allow-hygiene",
                &format!(
                    "lint:allow{}({}) suppresses no diagnostic — delete it",
                    if a.file_scope { "-file" } else { "" },
                    a.target
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 1: no-naked-float-cmp
// ---------------------------------------------------------------------------

fn no_naked_float_cmp(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    // The total-order shim itself is the one place allowed to touch
    // partial_cmp directly.
    if ctx.rel_path == "crates/geom/src/approx.rs" {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") || ctx.in_test(i) {
            continue;
        }
        // Blessed idiom: `fn partial_cmp(…) -> … { Some(self.cmp(other)) }`,
        // the standard PartialOrd-delegates-to-Ord impl.
        if i > 0 && toks[i - 1].is_ident("fn") && delegates_to_ord(toks, i) {
            continue;
        }
        ctx.diag(
            out,
            t.line,
            "no-naked-float-cmp",
            "raw partial_cmp — on distance values this silently drops NaN ordering; \
             wrap operands in conn_geom::OrdF64 (total order) instead",
        );
    }
}

/// Looks ahead from a `partial_cmp` definition for the exact body
/// `{ Some ( self . cmp ( other ) ) }`.
fn delegates_to_ord(toks: &[Token], def: usize) -> bool {
    let body_open = toks
        .iter()
        .enumerate()
        .skip(def)
        .find(|(_, t)| t.is_punct("{"))
        .map(|(j, _)| j);
    let Some(b) = body_open else { return false };
    let want: &[(&str, TokKind)] = &[
        ("Some", TokKind::Ident),
        ("(", TokKind::Punct),
        ("self", TokKind::Ident),
        (".", TokKind::Punct),
        ("cmp", TokKind::Ident),
        ("(", TokKind::Punct),
        ("other", TokKind::Ident),
        (")", TokKind::Punct),
        (")", TokKind::Punct),
        ("}", TokKind::Punct),
    ];
    toks.len() > b + want.len()
        && want
            .iter()
            .enumerate()
            .all(|(k, (txt, kind))| toks[b + 1 + k].kind == *kind && toks[b + 1 + k].text == *txt)
}

// ---------------------------------------------------------------------------
// Rule 2: no-panic-in-query-path
// ---------------------------------------------------------------------------

const QUERY_PATH_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/vgraph/src/",
    "crates/index/src/",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn no_panic_in_query_path(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !QUERY_PATH_PREFIXES
        .iter()
        .any(|p| ctx.rel_path.starts_with(p))
    {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        // .unwrap( / .expect(   — method calls only, not unwrap_or etc.
        // (idents compare whole, so unwrap_or is a different token).
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                &format!("no-panic-in-query-path[{}]", t.text),
                &format!(
                    ".{}() can panic mid-query — return conn::Error, or annotate \
                     `// lint:allow(no-panic-in-query-path)` with an infallibility proof",
                    t.text
                ),
            );
            continue;
        }
        // panic!-family macros.
        if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                "no-panic-in-query-path[panic]",
                &format!(
                    "{}! aborts the query — return conn::Error instead (or annotate with \
                     an infallibility justification)",
                    t.text
                ),
            );
            continue;
        }
        // Indexing: `expr[` where expr ends in an identifier, `)` or `]`.
        if t.is_punct("[") && i > 0 {
            let p = &toks[i - 1];
            let indexes_expr = (p.kind == TokKind::Ident && !is_keyword_before_bracket(&p.text))
                || p.is_punct(")")
                || p.is_punct("]");
            if indexes_expr {
                ctx.diag(
                    out,
                    t.line,
                    "no-panic-in-query-path[index]",
                    "slice/array indexing panics on out-of-bounds — use .get()/.get_mut(), \
                     or file-allow the [index] facet with a bounds-invariant justification",
                );
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an indexing
/// expression (`return [a, b]`, `match x { _ => [0] }`, …).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "in"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "move"
            | "as"
            | "let"
            | "mut"
            | "ref"
            | "for"
            | "box"
            | "yield"
    )
}

// ---------------------------------------------------------------------------
// Rule 3: no-thread-spawn-outside-pool
// ---------------------------------------------------------------------------

fn no_thread_spawn_outside_pool(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.rel_path == "crates/core/src/pool.rs" {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("spawn")
            && !ctx.in_test(i)
            && i > 0
            && (toks[i - 1].is_punct("::") || toks[i - 1].is_punct("."))
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                "no-thread-spawn-outside-pool",
                "threads are only created by the worker-engine pool \
                 (crates/core/src/pool.rs) — route parallel work through \
                 ConnService::execute_batch",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-interior-mutability-in-service
// ---------------------------------------------------------------------------

/// Files making up the serving layer, where `ConnService: Send + Sync` is a
/// contract: interior mutability either breaks the bound (cells) or needs an
/// explicit justification (locks). The R\*-tree files are its largest
/// shared object — every worker of every epoch reads the same trees, so
/// page accounting lives on caller-owned meters and the tree stays plain
/// data.
const SERVICE_LAYER_FILES: &[&str] = &[
    "crates/core/src/service.rs",
    "crates/core/src/epoch.rs",
    "crates/core/src/admission.rs",
    "crates/index/src/tree.rs",
    "crates/index/src/node.rs",
    "crates/index/src/query.rs",
];

const CELL_TYPES: &[&str] = &["RefCell", "Cell", "OnceCell", "UnsafeCell"];
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

fn no_interior_mutability_in_service(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !SERVICE_LAYER_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = ctx.toks();
    // `use …;` items only name the types — flagging them would force allows
    // on imports, which say nothing about how the type is held.
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(";") {
            in_use = false;
        }
        if in_use || ctx.in_test(i) {
            continue;
        }
        if CELL_TYPES.iter().any(|c| t.is_ident(c)) {
            ctx.diag(
                out,
                t.line,
                "no-interior-mutability-in-service[cell]",
                &format!(
                    "{} in the serving layer defeats ConnService: Send + Sync — publish \
                     immutable epoch snapshots instead (OnceLock for lazy init); the cell \
                     family is banned here",
                    t.text
                ),
            );
        } else if LOCK_TYPES.iter().any(|c| t.is_ident(c)) {
            ctx.diag(
                out,
                t.line,
                "no-interior-mutability-in-service[lock]",
                &format!(
                    "{} in the serving layer must be justified — annotate \
                     `// lint:allow(no-interior-mutability-in-service)` naming the bounded \
                     critical section it guards",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: no-wallclock-in-kernels
// ---------------------------------------------------------------------------

fn no_wallclock_in_kernels(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.rel_path.starts_with("crates/bench/") || ctx.rel_path == "crates/core/src/stats.rs" {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && !ctx.in_test(i)
            && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_ident("now")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                "no-wallclock-in-kernels",
                &format!(
                    "{}::now() in kernel code breaks determinism and replay — measure in \
                     the bench/stats layer, or annotate a boundary-only measurement",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: pub-api-documented
// ---------------------------------------------------------------------------

const DOCUMENTED_FILES: &[&str] = &[
    "src/lib.rs",
    "crates/core/src/query.rs",
    "crates/core/src/service.rs",
];

fn pub_api_documented(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !DOCUMENTED_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || ctx.in_test(i) {
            continue;
        }
        // Restricted visibility (pub(crate) etc.) is not public API.
        if toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false) {
            continue;
        }
        // `pub [const|async|unsafe|extern "…"]* fn`
        let mut j = i + 1;
        let mut is_fn = false;
        while j < toks.len() && j <= i + 5 {
            match &toks[j] {
                x if x.is_ident("fn") => {
                    is_fn = true;
                    break;
                }
                x if x.is_ident("const")
                    || x.is_ident("async")
                    || x.is_ident("unsafe")
                    || x.is_ident("extern")
                    || x.kind == TokKind::Str =>
                {
                    j += 1;
                }
                _ => break,
            }
        }
        if !is_fn {
            continue;
        }
        if !has_doc_before(toks, i) {
            let name = toks
                .get(j + 1)
                .map(|n| n.text.clone())
                .unwrap_or_else(|| "?".to_string());
            ctx.diag(
                out,
                t.line,
                "pub-api-documented",
                &format!("pub fn {name} has no doc comment — this file is public API surface"),
            );
        }
    }
}

/// Walks backwards from the `pub` token across stacked attributes looking
/// for a doc comment (or a `#[doc…]` attribute).
fn has_doc_before(toks: &[Token], mut i: usize) -> bool {
    while i > 0 {
        let prev = &toks[i - 1];
        if prev.kind == TokKind::Doc {
            return true;
        }
        if prev.is_punct("]") {
            // Skip back over one attribute `#[ … ]`.
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct("]") {
                    depth += 1;
                } else if toks[j].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            if toks.get(j + 1).map(|t| t.is_ident("doc")).unwrap_or(false) {
                return true;
            }
            if j == 0 || !toks[j - 1].is_punct("#") {
                return false;
            }
            i = j - 1;
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 6: feature-gate-hygiene
// ---------------------------------------------------------------------------

fn feature_gate_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("cfg") || t.is_ident("cfg_attr")) {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.is_punct("(")) else {
            continue;
        };
        let _ = open;
        let Some(close) = matching(toks, i + 1, "(", ")") else {
            continue;
        };
        let mut j = i + 2;
        while j + 2 <= close {
            if toks[j].is_ident("feature")
                && toks[j + 1].is_punct("=")
                && toks[j + 2].kind == TokKind::Str
            {
                let name = &toks[j + 2].text;
                if !ctx.declared_features.contains(name) {
                    ctx.diag(
                        out,
                        toks[j + 2].line,
                        "feature-gate-hygiene",
                        &format!(
                            "cfg(feature = \"{name}\") — feature is not declared in the \
                             owning crate's Cargo.toml [features] table; typo or missing \
                             declaration"
                        ),
                    );
                }
                j += 3;
            } else {
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-full-rebuild-in-delta-path
// ---------------------------------------------------------------------------

/// Cold-build method calls the live delta path must never reach for. A
/// cold search start (`prepare_directed`) is not one: every search over a
/// changed graph starts cold, and it costs what carrying labels across the
/// change did.
const COLD_BUILD_CALLS: &[&str] = &["bulk_load"];
/// Substrate types whose `::new` constructor is a from-scratch cold build.
const COLD_BUILD_CTORS: &[&str] = &["VisGraph", "Scene"];

fn no_full_rebuild_in_delta_path(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    // The live-scene module's whole contract is surgical repair: its delta
    // path may only mutate resident trees/graphs and derive epochs by
    // structural sharing. Cold builds are construction-time only, and each
    // must say so in an inline allow.
    if ctx.rel_path != "crates/core/src/live.rs" {
        return;
    }
    let toks = ctx.toks();
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        // `….bulk_load(` — method or path calls.
        if COLD_BUILD_CALLS.iter().any(|c| t.is_ident(c))
            && i > 0
            && (toks[i - 1].is_punct("::") || toks[i - 1].is_punct("."))
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                "no-full-rebuild-in-delta-path",
                &format!(
                    "{}() rebuilds a substrate from scratch — the live delta path must \
                     repair the resident tree/graph in place; a construction-time cold \
                     build needs an inline `lint:allow` justification",
                    t.text
                ),
            );
            continue;
        }
        // `VisGraph::new(` / `Scene::new(` — cold constructors (Scene::shared
        // and Scene::from_trees stay legal: they share, they don't rebuild).
        if COLD_BUILD_CTORS.iter().any(|c| t.is_ident(c))
            && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_ident("new")).unwrap_or(false)
            && toks.get(i + 3).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            ctx.diag(
                out,
                t.line,
                "no-full-rebuild-in-delta-path",
                &format!(
                    "{}::new(…) builds a cold substrate — the live delta path must derive \
                     epochs by structural sharing and in-place repair; a construction-time \
                     cold build needs an inline `lint:allow` justification",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_diags(rel_path: &str, src: &str, feats: &[&str]) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let features: HashSet<String> = feats.iter().map(|s| s.to_string()).collect();
        let ctx = FileContext::new(rel_path, &lexed, &features);
        apply_allows(&ctx, run_all(&ctx))
    }

    #[test]
    fn unwrap_flagged_in_core_not_elsewhere() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = ctx_diags("crates/core/src/conn.rs", src, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-panic-in-query-path[unwrap]");
        assert_eq!(d[0].line, 1);
        assert!(ctx_diags("crates/datasets/src/points.rs", src, &[]).is_empty());
    }

    #[test]
    fn unwrap_or_and_tests_are_exempt() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(ctx_diags("crates/core/src/conn.rs", src, &[]).is_empty());
    }

    #[test]
    fn indexing_facet_and_file_allow() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n";
        let d = ctx_diags("crates/vgraph/src/dijkstra.rs", src, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-panic-in-query-path[index]");
        let allowed =
            format!("// lint:allow-file(no-panic-in-query-path[index]): bounds proven\n{src}");
        assert!(ctx_diags("crates/vgraph/src/dijkstra.rs", &allowed, &[]).is_empty());
    }

    #[test]
    fn array_literals_and_attrs_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() -> [u32; 2] { [1, 2] }\n\
                   fn g(x: bool) -> Vec<[u8; 2]> { if x { vec![[0, 0]] } else { vec![] } }\n";
        assert!(ctx_diags("crates/core/src/conn.rs", src, &[]).is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let src = "fn f() { unreachable!(\"no\") }\n";
        let d = ctx_diags("crates/index/src/tree.rs", src, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-panic-in-query-path[panic]");
    }

    #[test]
    fn line_allow_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // lint:allow(no-panic-in-query-path)\n\
                   x.unwrap()\n}\n";
        assert!(ctx_diags("crates/core/src/conn.rs", src, &[]).is_empty());
    }

    #[test]
    fn partial_cmp_flagged_unless_delegating() {
        let naked = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        let d = ctx_diags("crates/core/src/joins.rs", naked, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-naked-float-cmp");

        let blessed = "impl PartialOrd for X {\n\
                       fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n\
                       Some(self.cmp(other)) }\n}\n";
        assert!(ctx_diags("crates/core/src/joins.rs", blessed, &[]).is_empty());
        // approx.rs itself is exempt.
        assert!(ctx_diags("crates/geom/src/approx.rs", naked, &[]).is_empty());
    }

    #[test]
    fn wallclock_and_spawn() {
        let src = "fn f() { let t = Instant::now(); std::thread::spawn(|| {}); }\n";
        let d = ctx_diags("crates/core/src/conn.rs", src, &[]);
        let codes: Vec<_> = d.iter().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"no-wallclock-in-kernels"));
        assert!(codes.contains(&"no-thread-spawn-outside-pool"));
        // The pool file may spawn; the bench crate may read the clock but
        // not spawn.
        assert!(ctx_diags(
            "crates/core/src/pool.rs",
            "fn f() { std::thread::spawn(|| {}); }",
            &[]
        )
        .is_empty());
        let d = ctx_diags(
            "crates/bench/src/bin/repro.rs",
            "fn f() { Instant::now(); std::thread::spawn(|| {}); }",
            &[],
        );
        let codes: Vec<_> = d.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["no-thread-spawn-outside-pool"]);
    }

    #[test]
    fn interior_mutability_rule_covers_serving_files() {
        // cells are banned outright…
        let cell = "struct S { x: RefCell<u32> }\n";
        let d = ctx_diags("crates/core/src/service.rs", cell, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-interior-mutability-in-service[cell]");
        // …imports alone are not flagged…
        assert!(ctx_diags("crates/core/src/epoch.rs", "use std::cell::RefCell;\n", &[]).is_empty());
        // …locks need a justification…
        let lock = "struct S { m: Mutex<u32> }\n";
        let d = ctx_diags("crates/core/src/admission.rs", lock, &[]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "no-interior-mutability-in-service[lock]");
        let justified = "struct S {\n\
                         // lint:allow(no-interior-mutability-in-service)\n\
                         m: Mutex<u32>,\n}\n";
        assert!(ctx_diags("crates/core/src/admission.rs", justified, &[]).is_empty());
        // …the shared tree is part of it: no counter cell, no buffer lock…
        for file in ["tree.rs", "node.rs", "query.rs"] {
            let path = format!("crates/index/src/{file}");
            assert_eq!(ctx_diags(&path, cell, &[]).len(), 1, "{path}");
            assert_eq!(ctx_diags(&path, lock, &[]).len(), 1, "{path}");
        }
        // …and the rule only covers the serving layer (the meter lives in
        // index/src/stats.rs, cells and all).
        assert!(ctx_diags("crates/index/src/stats.rs", cell, &[]).is_empty());
        assert!(ctx_diags("crates/core/src/pool.rs", lock, &[]).is_empty());
        assert!(ctx_diags("crates/core/src/conn.rs", cell, &[]).is_empty());
    }

    #[test]
    fn pub_fn_doc_required_only_in_api_files() {
        let src = "pub fn naked() {}\n/// documented\npub fn fine() {}\n\
                   pub(crate) fn internal() {}\n";
        let d = ctx_diags("crates/core/src/query.rs", src, &[]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("naked"));
        assert!(ctx_diags("crates/core/src/conn.rs", src, &[]).is_empty());
    }

    #[test]
    fn feature_gate_checked_against_manifest() {
        let src = "#[cfg(feature = \"sanitize-invariants\")]\nfn a() {}\n\
                   #[cfg(all(test, feature = \"nope\"))]\nfn b() {}\n";
        let d = ctx_diags("crates/geom/src/sanitize.rs", src, &["sanitize-invariants"]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("nope"));
    }

    #[test]
    fn full_rebuild_flagged_only_in_live_module() {
        let src = "fn f() { let t = RStarTree::bulk_load(items, 4096); \
                   let g = VisGraph::new(cell); }\n";
        let d = ctx_diags("crates/core/src/live.rs", src, &[]);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.code == "no-full-rebuild-in-delta-path"));
        // Other files may cold-build freely.
        assert!(ctx_diags("crates/core/src/service.rs", src, &[]).is_empty());
        // Starting a search cold is not a rebuild.
        let cold_search = "fn f() { dij.prepare_directed(&g, src, goal); }\n";
        assert!(ctx_diags("crates/core/src/live.rs", cold_search, &[]).is_empty());
        // Structural sharing is the blessed idiom, not a rebuild.
        let shared = "fn f() { let s = Scene::shared(data, obstacles); }\n";
        assert!(ctx_diags("crates/core/src/live.rs", shared, &[]).is_empty());
        // Construction-time cold builds carry an inline justification.
        let justified = "fn build() {\n\
                         let g = VisGraph::new(cell); // lint:allow(no-full-rebuild-in-delta-path): construction-time\n\
                         g.prepare();\n}\n";
        assert!(ctx_diags("crates/core/src/live.rs", justified, &[]).is_empty());
        // Test code is exempt (cold rebuilds are the oracle there).
        let test_src = "#[cfg(test)]\nmod tests {\n  fn g() { \
                        let s = Scene::new(points, obstacles); }\n}\n";
        assert!(ctx_diags("crates/core/src/live.rs", test_src, &[]).is_empty());
    }

    #[test]
    fn allow_that_suppresses_nothing_is_flagged() {
        // the unwrap the line allow covered is gone; the file never indexes
        let src = "// lint:allow-file(no-panic-in-query-path[index]): dense arrays\n\
                   // lint:allow(no-panic-in-query-path)\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let d = ctx_diags("crates/core/src/conn.rs", src, &[]);
        let found: Vec<(u32, &str)> = d.iter().map(|x| (x.line, x.code.as_str())).collect();
        assert_eq!(
            found,
            [(1, "lint-allow-hygiene"), (2, "lint-allow-hygiene")],
            "{d:?}"
        );
        assert!(d[0]
            .message
            .contains("lint:allow-file(no-panic-in-query-path[index])"));
        // both still earn their keep while their subjects exist
        let live = "// lint:allow-file(no-panic-in-query-path[index]): dense arrays\n\
                    // lint:allow(no-panic-in-query-path)\n\
                    fn f(x: Option<u32>, v: &[u32]) -> u32 { x.unwrap() + v[0] }\n";
        assert!(ctx_diags("crates/core/src/conn.rs", live, &[]).is_empty());
    }

    #[test]
    fn unjustified_file_allow_is_itself_flagged() {
        let src = "// lint:allow-file(no-panic-in-query-path)\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = ctx_diags("crates/core/src/conn.rs", src, &[]);
        let codes: Vec<_> = d.iter().map(|d| d.code.as_str()).collect();
        // The allow is rejected (no justification) so the unwrap still fires,
        // plus the hygiene finding.
        assert!(codes.contains(&"lint-allow-hygiene"));
        assert!(codes.contains(&"no-panic-in-query-path[unwrap]"));
    }
}
