//! Every public function has a caller.
//!
//! A `pub fn` under `crates/*/src` (outside `#[cfg(test)]`) passes when
//! its name appears as code — not in a comment or a string — either in
//! another `.rs` file under `crates/`, `src/`, `tests/`, `examples/` or
//! `perfbench/src`, or in its own file's non-test code other than the
//! definition line. A function that only its own unit tests call is
//! library surface nothing uses: delete it, or give it a caller.

use sgprs_lint::lex::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory trees whose `.rs` files count as callers.
const CALLER_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "perfbench/src"];

/// Directories never read: build output and the lint rules' own corpora.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if path.is_dir() {
            if !name.is_some_and(|n| SKIP_DIRS.contains(&n.as_str())) {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The name a `pub fn` (optionally `const`, `async` or `unsafe`) line
/// defines; `pub(crate)` and other restricted visibilities do not count.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    for qualifier in ["const ", "async ", "unsafe "] {
        if let Some(r) = rest.strip_prefix(qualifier) {
            rest = r.trim_start();
        }
    }
    identifiers(rest.strip_prefix("fn ")?).next()
}

#[test]
fn every_public_function_has_a_caller_outside_its_own_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut files = Vec::new();
    for top in CALLER_ROOTS {
        collect_rs_files(&root.join(top), &mut files);
    }
    let scanned: Vec<(String, ScannedFile)> = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
            (rel, ScannedFile::scan(&source))
        })
        .collect();

    // For each identifier, the files whose code mentions it anywhere.
    let mut mentioned_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (index, (_, file)) in scanned.iter().enumerate() {
        for line in &file.code {
            for ident in identifiers(line) {
                mentioned_in.entry(ident).or_default().insert(index);
            }
        }
    }

    let mut orphans = Vec::new();
    for (index, (rel, file)) in scanned.iter().enumerate() {
        let in_crate_src = rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src");
        if !in_crate_src {
            continue;
        }
        for (def_line, line) in file.code.iter().enumerate() {
            if file.is_test_line(def_line) {
                continue;
            }
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            let elsewhere = mentioned_in
                .get(name)
                .is_some_and(|files| files.iter().any(|&f| f != index));
            let own_file = file.code.iter().enumerate().any(|(l, code)| {
                l != def_line && !file.is_test_line(l) && identifiers(code).any(|i| i == name)
            });
            if !elsewhere && !own_file {
                orphans.push(format!("{rel}:{}: pub fn {name}", def_line + 1));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "{} public function(s) have no caller outside their own tests:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}
