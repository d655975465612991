//! `sgprs-lint` — the workspace determinism auditor.
//!
//! The fleet's core contract is *byte-identical output*: the same
//! scenario produces the same JSON across worker counts {1,2,4,8},
//! both execution engines, and flat/sharded/p2c routing. That contract
//! is defended dynamically by the determinism-matrix tests, but a
//! dynamic test only catches a hazard once a scenario happens to
//! tickle it. This crate is the static half: a self-contained,
//! dependency-free token scanner (comment- and string-aware, see
//! [`lex`]) that audits the workspace sources at CI time and fails on
//! determinism and hot-path hygiene violations.
//!
//! # Rule catalog
//!
//! | ID   | Rule |
//! |------|------|
//! | D001 | No `HashMap`/`HashSet` *iteration* in deterministic modules (`cluster::{fleet, policy, event, shard, queue, telemetry}`). Keyed lookup is fine; `.iter()`/`.keys()`/`for` over them is not — hash order is seeded per process. |
//! | D002 | No wall-clock reads (`Instant::now`, `SystemTime`) outside the allowlisted profiling surfaces (the telemetry clock hooks, the span profiler, the bench bins). |
//! | D003 | No ambient randomness (`thread_rng`, `OsRng`, `from_entropy`): randomness flows from explicit seeds. |
//! | D004 | Parallel folds (`run_node_epochs`-style reduces, telemetry sketch merges) must state their fold order in a nearby comment (`node-index order`, `window order`, ...). |
//! | H001 | No bare `unwrap()` — and only `expect("invariant: ...")` — on the dispatch hot path (`fleet`, `policy`, `shard`, `queue`, `node`, `admission`, the event engine) and the paper layer's step loop (the gpu-sim engine, the SGPRS online phase, the release driver). |
//! | L000 | A malformed `sgprs-lint` control comment (fires on unparseable allows, unknown rule IDs, and missing justifications). |
//!
//! # Escape hatch
//!
//! A justified allow on the offending line or the line above suppresses
//! a diagnostic:
//!
//! ```text
//! // sgprs-lint: allow(D001) -- commutative u64 sum, order-free
//! let total: u64 = self.counts.values().sum();
//! ```
//!
//! The ` -- justification` part is mandatory; an allow without one is
//! itself an error (L000). `cargo run -p sgprs-lint -- --workspace`
//! runs the audit; `--fix-annotations` prints the annotation each
//! diagnostic would need, as a dry run.
//!
//! Unit tests (`#[cfg(test)]` items), integration-test files, fixture
//! corpora, and the vendored stand-ins are outside the audit surface.

#![forbid(unsafe_code)]

pub mod lex;
mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule ID with a one-line summary, in catalog order.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "no HashMap/HashSet iteration in deterministic modules (keyed lookup is fine)",
    ),
    (
        "D002",
        "no wall-clock (Instant::now, SystemTime) outside allowlisted profiling surfaces",
    ),
    (
        "D003",
        "no ambient randomness (thread_rng, OsRng, from_entropy); seed explicitly",
    ),
    (
        "D004",
        "parallel folds must state their fold order in a nearby marker comment",
    ),
    (
        "H001",
        "no unwrap(); only expect(\"invariant: ...\") on the dispatch hot path",
    ),
    ("L000", "malformed sgprs-lint control comment"),
];

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule ID (`D001`...`H001`, `L000`).
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: &'static str, file: &str, line: usize, message: String) -> Self {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }

    /// Renders as `file:line: RULE: message`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parallel-fold function D004 watches, optionally scoped to a path
/// prefix (so a generic name like `merge` only binds where it really
/// is a fold).
#[derive(Debug, Clone)]
pub struct FoldFn {
    /// The function or method name at the call site.
    pub name: String,
    /// When set, the rule only applies to files under this prefix.
    pub prefix: Option<String>,
}

/// The auditor's policy: which paths each rule binds to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes of the deterministic modules D001 guards.
    pub deterministic_prefixes: Vec<String>,
    /// Path prefixes where wall-clock reads are allowed (D002).
    pub wall_clock_allow: Vec<String>,
    /// Exact file paths forming the hot path (H001): the cluster's
    /// dispatch path and the paper layer's step loop.
    pub hot_path_files: Vec<String>,
    /// Parallel-fold call sites D004 requires order markers on.
    pub fold_fns: Vec<FoldFn>,
}

impl Config {
    /// The policy for this workspace: the deterministic `cluster`
    /// modules, the telemetry/bench profiling allowlist, the dispatch
    /// hot-path file set, and the known parallel folds.
    #[must_use]
    pub fn workspace_default() -> Self {
        let own = |s: &[&str]| s.iter().map(|p| (*p).to_string()).collect();
        Config {
            deterministic_prefixes: own(&[
                "crates/cluster/src/fleet",
                "crates/cluster/src/policy.rs",
                "crates/cluster/src/event",
                "crates/cluster/src/shard.rs",
                "crates/cluster/src/queue.rs",
                "crates/cluster/src/telemetry",
                "crates/cluster/src/stream.rs",
                "crates/cluster/src/interner.rs",
            ]),
            wall_clock_allow: own(&[
                // The telemetry clock hooks: wall-clock by design, kept
                // out of the deterministic export.
                "crates/cluster/src/telemetry/mod.rs",
                // The span-scoped hot-path profiler — the one other
                // cluster surface allowed to read `Instant::now`; its
                // histograms never reach the deterministic export.
                "crates/cluster/src/telemetry/prof.rs",
                // Bench bins measure wall time; that is their job.
                "crates/bench/src/bin/",
            ]),
            hot_path_files: own(&[
                "crates/cluster/src/fleet.rs",
                "crates/cluster/src/policy.rs",
                "crates/cluster/src/shard.rs",
                "crates/cluster/src/queue.rs",
                "crates/cluster/src/event.rs",
                "crates/cluster/src/event/engine.rs",
                "crates/cluster/src/event/exec.rs",
                "crates/cluster/src/stream.rs",
                "crates/cluster/src/interner.rs",
                "crates/cluster/src/node.rs",
                "crates/cluster/src/admission.rs",
                // The paper layer's step loop, which every epoch-fleet
                // node runs.
                "crates/gpu-sim/src/engine.rs",
                "crates/core/src/sgprs.rs",
                "crates/core/src/release.rs",
            ]),
            fold_fns: vec![
                FoldFn {
                    name: "run_node_epochs".to_string(),
                    prefix: None,
                },
                FoldFn {
                    name: "merge".to_string(),
                    prefix: Some("crates/cluster/src/telemetry/".to_string()),
                },
            ],
        }
    }
}

/// Audits one source file. `path` is the workspace-relative path (with
/// forward slashes) that rule scoping and diagnostics use.
#[must_use]
pub fn scan_source(path: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    let scanned = lex::ScannedFile::scan(source);
    let (allows, mut diags) = parse_allow_directives(path, &scanned);
    diags.extend(rules::check_file(path, &scanned, cfg));
    diags.retain(|d| {
        if d.rule == "L000" {
            return true;
        }
        let line0 = d.line - 1;
        let covered =
            allowed(&allows, line0, d.rule) || (line0 > 0 && allowed(&allows, line0 - 1, d.rule));
        !covered
    });
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn allowed(allows: &BTreeMap<usize, Vec<String>>, line0: usize, rule: &str) -> bool {
    allows
        .get(&line0)
        .is_some_and(|rs| rs.iter().any(|r| r == rule))
}

/// Parses justified allow comments — `allow(D001, D002) -- why` after
/// the `sgprs-lint` marker. Returns the per-line allow sets plus L000
/// diagnostics for malformed directives (unknown rule, missing
/// justification).
fn parse_allow_directives(
    path: &str,
    scanned: &lex::ScannedFile,
) -> (BTreeMap<usize, Vec<String>>, Vec<Diagnostic>) {
    let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut diags = Vec::new();
    for (line_no, comment) in scanned.comments.iter().enumerate() {
        let Some(at) = comment.find("sgprs-lint:") else {
            continue;
        };
        let directive = comment[at + "sgprs-lint:".len()..].trim();
        match parse_allow(directive) {
            Ok(rule_ids) => allows.entry(line_no).or_default().extend(rule_ids),
            Err(why) => diags.push(Diagnostic::new(
                "L000",
                path,
                line_no + 1,
                format!("malformed sgprs-lint directive: {why}"),
            )),
        }
    }
    (allows, diags)
}

fn parse_allow(directive: &str) -> Result<Vec<String>, String> {
    let rest = directive
        .strip_prefix("allow(")
        .ok_or_else(|| "expected `allow(<rule>, ...) -- <justification>`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let mut rule_ids = Vec::new();
    for raw in rest[..close].split(',') {
        let id = raw.trim();
        if !RULES.iter().any(|(known, _)| *known == id) {
            return Err(format!("unknown rule `{id}`"));
        }
        rule_ids.push(id.to_string());
    }
    if rule_ids.is_empty() {
        return Err("empty rule list".to_string());
    }
    let tail = rest[close + 1..].trim();
    let justification = tail
        .strip_prefix("--")
        .map(str::trim)
        .ok_or_else(|| "missing ` -- <justification>`".to_string())?;
    if justification.is_empty() {
        return Err("empty justification after `--`".to_string());
    }
    Ok(rule_ids)
}

/// Directory names the workspace walk never descends into: build
/// output, the vendored stand-ins, test-only corpora.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "tests", "benches", ".git"];

/// Audits the whole workspace rooted at `root`: every `.rs` file under
/// `crates/`, `src/`, and `examples/`, excluding build output, the
/// vendored stand-ins, integration-test and bench directories, fixture
/// corpora, and out-of-line unit-test files (`tests.rs`).
///
/// # Errors
///
/// Propagates filesystem errors from the walk or file reads.
pub fn scan_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut diags = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&file)?;
        diags.extend(scan_source(&rel, &source, cfg));
    }
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") && name != "tests.rs" {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
