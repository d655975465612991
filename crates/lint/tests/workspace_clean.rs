//! The whole-workspace clean run: the auditor applied to the very tree
//! it ships in must report nothing. This is the static complement of
//! the determinism-matrix tests — any hash-iteration, wall-clock,
//! ambient-randomness, unmarked-fold, or hot-path-unwrap regression
//! anywhere in the audited surface fails this test before a snapshot
//! ever gets the chance to diverge.

use sgprs_lint::{scan_workspace, Config};
use std::path::Path;

#[test]
fn the_workspace_is_determinism_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let diags = match scan_workspace(&root, &Config::workspace_default()) {
        Ok(d) => d,
        Err(e) => panic!("workspace walk failed: {e}"),
    };
    let rendered: Vec<String> = diags.iter().map(sgprs_lint::Diagnostic::render).collect();
    assert!(
        diags.is_empty(),
        "sgprs-lint must be clean on its own workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn the_walk_actually_covers_the_deterministic_modules() {
    // Guard against the walker silently skipping the code the audit
    // exists for: a planted violation under the cluster sources must
    // surface. (Scan the source text through the public API with its
    // real-tree virtual path; no files are written.)
    let src = "pub fn bad() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    let diags = sgprs_lint::scan_source(
        "crates/cluster/src/policy.rs",
        src,
        &Config::workspace_default(),
    );
    assert!(
        diags.iter().any(|d| d.rule == "D002"),
        "planted wall-clock read must be caught: {diags:?}"
    );
}
