//! Fixture-driven self-tests: each rule must fire on its bad fixture
//! and stay silent on its good one, the allow machinery must suppress
//! exactly what it names, and `#[cfg(test)]` code must be exempt.

use super::*;

fn fixture(rule_dir: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule_dir)
        .join(format!("{which}.rs"));
    match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("fixture {} unreadable: {e}", path.display()),
    }
}

/// Scans a fixture as if it lived at `virtual_path`, so path-scoped
/// rules bind exactly the way they do in the real tree.
fn scan_fixture(rule_dir: &str, which: &str, virtual_path: &str) -> Vec<Diagnostic> {
    scan_source(
        virtual_path,
        &fixture(rule_dir, which),
        &Config::workspace_default(),
    )
}

/// A hot-path deterministic-module path: every rule binds here.
const DET_HOT: &str = "crates/cluster/src/fleet.rs";

fn assert_fires(rule_dir: &str, virtual_path: &str, rule: &str, at_least: usize) {
    let diags = scan_fixture(rule_dir, "bad", virtual_path);
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
    assert!(
        hits.len() >= at_least,
        "{rule} must fire >= {at_least}x on {rule_dir}/bad.rs, got {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.rule == rule),
        "only {rule} may fire on its own bad fixture: {diags:?}"
    );
}

fn assert_silent(rule_dir: &str, virtual_path: &str) {
    let diags = scan_fixture(rule_dir, "good", virtual_path);
    assert!(
        diags.is_empty(),
        "{rule_dir}/good.rs must be clean: {diags:?}"
    );
}

#[test]
fn d001_fires_on_hash_iteration_and_respects_keyed_access() {
    // Three iteration sites: the for-loop, `.iter()`, and `.keys()`.
    assert_fires("d001", DET_HOT, "D001", 3);
    assert_silent("d001", DET_HOT);
}

#[test]
fn d001_guards_the_timing_wheel_module() {
    // The wheel is the event queue's ordering core: HashMap iteration
    // there would randomise pop order run-to-run. Pin that the
    // deterministic-module prefix covers it and H001 binds too.
    assert_fires("d001", "crates/cluster/src/event/wheel.rs", "D001", 3);
    assert_silent("d001", "crates/cluster/src/event/wheel.rs");
    assert_fires("h001", "crates/cluster/src/event/wheel.rs", "H001", 2);
}

#[test]
fn d001_is_scoped_to_deterministic_modules() {
    let diags = scan_fixture("d001", "bad", "crates/workload/src/fleet.rs");
    assert!(
        diags.is_empty(),
        "outside the deterministic modules D001 stays quiet: {diags:?}"
    );
}

#[test]
fn d002_fires_on_wall_clock_and_respects_the_allowlist() {
    // `Instant::now` once, `SystemTime` twice (import + call).
    assert_fires("d002", "crates/cluster/src/event/engine.rs", "D002", 3);
    assert_silent("d002", "crates/cluster/src/event/engine.rs");
    let diags = scan_fixture("d002", "bad", "crates/bench/src/bin/fleet.rs");
    assert!(
        diags.is_empty(),
        "bench bins are an allowlisted profiling surface: {diags:?}"
    );
}

#[test]
fn d002_allowlists_the_profiler_but_not_other_cluster_or_bench_modules() {
    // The span profiler is allowlisted...
    let diags = scan_fixture("d002", "bad", "crates/cluster/src/telemetry/prof.rs");
    assert!(
        diags.is_empty(),
        "the span profiler is an allowlisted profiling surface: {diags:?}"
    );
    // ...but a wall-clock read in any *other* cluster module, or in the
    // bench crate's allocation-counting library module, still fires:
    // the allowlist names files, it does not open a crate.
    for hot in [
        "crates/cluster/src/fleet.rs",
        "crates/cluster/src/stream.rs",
        "crates/cluster/src/telemetry/sketch.rs",
        "crates/bench/src/report.rs",
    ] {
        let diags = scan_fixture("d002", "bad", hot);
        assert!(
            diags.iter().filter(|d| d.rule == "D002").count() >= 3,
            "a wall-clock read in {hot} must keep firing: {diags:?}"
        );
    }
}

#[test]
fn d003_fires_on_ambient_randomness_and_not_on_seeded() {
    // `thread_rng` and `from_entropy`.
    assert_fires("d003", DET_HOT, "D003", 2);
    assert_silent("d003", DET_HOT);
}

#[test]
fn d004_requires_a_fold_order_marker_near_the_call_site() {
    assert_fires("d004", DET_HOT, "D004", 1);
    assert_silent("d004", DET_HOT);
}

#[test]
fn h001_fires_on_hot_path_unwrap_and_unnamed_expect() {
    assert_fires("h001", DET_HOT, "H001", 2);
    assert_silent("h001", DET_HOT);
}

#[test]
fn h001_binds_the_paper_layer_step_loop() {
    for path in [
        "crates/gpu-sim/src/engine.rs",
        "crates/core/src/sgprs.rs",
        "crates/core/src/release.rs",
    ] {
        assert_fires("h001", path, "H001", 2);
    }
}

#[test]
fn h001_is_scoped_to_the_hot_path_file_set() {
    let diags = scan_fixture("h001", "bad", "crates/cluster/src/metrics.rs");
    assert!(
        diags.is_empty(),
        "H001 binds only to the hot-path files: {diags:?}"
    );
}

#[test]
fn an_allow_suppresses_only_the_rule_it_names() {
    let src = "\
pub fn f() -> u128 {
    // sgprs-lint: allow(D003) -- wrong rule on purpose
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos()
}
";
    let diags = scan_source("crates/core/src/lib.rs", src, &Config::workspace_default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "D002", "the D003 allow must not cover D002");
}

#[test]
fn a_trailing_same_line_allow_works_too() {
    let src = "\
pub fn f() -> u128 {
    let t0 = std::time::Instant::now(); // sgprs-lint: allow(D002) -- profiling probe
    t0.elapsed().as_nanos()
}
";
    let diags = scan_source("crates/core/src/lib.rs", src, &Config::workspace_default());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn malformed_allows_are_their_own_error() {
    for bad in [
        "// sgprs-lint: allow(D002)",         // missing justification
        "// sgprs-lint: allow(D002) -- ",     // empty justification
        "// sgprs-lint: allow(D9999) -- x",   // unknown rule
        "// sgprs-lint: allow(D002 -- x",     // unclosed
        "// sgprs-lint: disallow(D002) -- x", // unknown verb
    ] {
        let src = format!("{bad}\npub fn f() {{}}\n");
        let diags = scan_source("crates/core/src/lib.rs", &src, &Config::workspace_default());
        assert_eq!(diags.len(), 1, "{bad:?} -> {diags:?}");
        assert_eq!(diags[0].rule, "L000", "{bad:?} -> {diags:?}");
    }
}

#[test]
fn cfg_test_code_is_exempt_from_every_rule() {
    let src = "\
pub fn live() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for (_, v) in &m {
            let _ = v;
        }
        let t0 = std::time::Instant::now();
        let _ = t0.elapsed();
        let _ = [1u64].first().unwrap();
    }
}
";
    let diags = scan_source(DET_HOT, src, &Config::workspace_default());
    assert!(
        diags.is_empty(),
        "test-only code is out of scope: {diags:?}"
    );
}

#[test]
fn patterns_inside_strings_and_comments_never_fire() {
    let src = "\
pub fn f() -> &'static str {
    // Instant::now and thread_rng in a comment are just words.
    \"Instant::now SystemTime thread_rng .unwrap()\"
}
";
    let diags = scan_source(DET_HOT, src, &Config::workspace_default());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn multiline_method_chains_are_still_caught() {
    let src = "\
use std::collections::HashMap;

pub struct S {
    m: HashMap<u32, u32>,
}

impl S {
    pub fn sum(&self) -> u32 {
        self.m
            .values()
            .sum()
    }
}
";
    let diags = scan_source(DET_HOT, src, &Config::workspace_default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "D001");
    assert_eq!(diags[0].line, 10, "flagged at the `.values()` line");
}

#[test]
fn rule_ids_are_unique_and_render_is_stable() {
    let mut seen = std::collections::BTreeSet::new();
    for (id, _) in RULES {
        assert!(seen.insert(id), "duplicate rule id {id}");
    }
    let d = Diagnostic::new("D001", "a/b.rs", 7, "msg".to_string());
    assert_eq!(d.render(), "a/b.rs:7: D001: msg");
}
