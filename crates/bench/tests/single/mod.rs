//! The entry point of a test target built with `harness = false` that
//! holds one test.
//!
//! The allocation-pinning tests count heap traffic with a process-wide
//! counter. Under libtest a test runs on a spawned thread while the main
//! thread waits on it, and anything the main thread allocates meanwhile
//! (such as the notice it prints when a test passes 60 s) lands in the
//! test's count. These targets run their test on the main thread instead,
//! the only thread in the process, so the count is exact.
//!
//! [`run`] prints libtest's `test <name> ... ok` and `test result` lines
//! and answers `--list`, so `cargo test` shows and counts the test by
//! name. Name filters are not applied: the test always runs (it takes a
//! second or two).

use std::time::Instant;

/// Runs `test` as the target's one test called `name`, or lists it
/// under `--list`. A failing test panics, so the process exits non-zero
/// as libtest's would.
pub fn run(name: &str, test: fn()) {
    if std::env::args().any(|a| a == "--list") {
        println!("{name}: test");
        return;
    }
    println!("\nrunning 1 test");
    let start = Instant::now();
    test();
    println!("test {name} ... ok");
    println!(
        "\ntest result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out; finished in {:.2}s\n",
        start.elapsed().as_secs_f64()
    );
}
