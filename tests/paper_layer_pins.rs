//! Exact-output pins for the paper-layer schedulers.
//!
//! Four configurations — SGPRS as the paper runs it and with FIFO queues
//! on two contexts, SGPRS as the paper runs it on three unequal contexts,
//! and the naive partitioner — each run under both admission rules
//! (frame buffer and skip-if-busy) at an under-load and an overload
//! point, and the resulting counters must equal the recorded values
//! exactly. No scheduler aborts a job, so `dropped` reads 0 everywhere,
//! and the three-context pool pins per-context dispatch order beyond two
//! contexts. A refactor of the shared release, admission or completion
//! code that changes a single simulated decision fails here.

use sgprs_suite::core::{
    offline, Admission, CompiledTask, ContextPoolSpec, NaiveConfig, NaiveScheduler, QueueOrder,
    RunMetrics, SgprsConfig, SgprsScheduler,
};
use sgprs_suite::dnn::{models, CostModel};
use sgprs_suite::rt::{SimDuration, SimTime};

/// `[released, completed, met, late, skipped, dropped, Σ response ns]`
/// of one run.
type Pin = [u64; 7];

const MODES: [(&str, Admission); 2] = [
    ("frame-buffer", Admission::FrameBuffer),
    ("skip-if-busy", Admission::SkipIfBusy),
];

/// Task counts of the under-load and overload points.
const LOADS: [(&str, usize); 2] = [("under", 6), ("over", 30)];

fn end() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(1)
}

fn pool() -> ContextPoolSpec {
    ContextPoolSpec::new(2, 1.5)
}

/// Three contexts at 2× over-subscription: 136 SMs split 46/45/45, so
/// dispatch runs over more than two unequal contexts.
fn pool3() -> ContextPoolSpec {
    ContextPoolSpec::new(3, 2.0)
}

/// `n` 30-fps ResNet-18 tasks compiled for `pool`, all released at 0.
fn tasks(pool: &ContextPoolSpec, n: usize) -> Vec<CompiledTask> {
    let base = offline::compile_network_task(
        "cam",
        &models::resnet18(1, 224),
        &CostModel::calibrated(),
        6,
        SimDuration::from_micros(33_333),
        pool,
    )
    .expect("six stages");
    (0..n)
        .map(|i| {
            let mut t = base.clone();
            t.spec.name = format!("cam-{i}");
            t
        })
        .collect()
}

fn pin(m: &RunMetrics) -> Pin {
    [
        m.released,
        m.completed,
        m.met,
        m.late,
        m.skipped,
        m.dropped,
        m.response_samples_ns.iter().sum(),
    ]
}

/// Runs `run(admission, tasks)` over the whole grid on `pool` and
/// compares every row against `expected`, reporting all mismatches at
/// once.
fn check(
    scheduler: &str,
    pool: &ContextPoolSpec,
    expected: &[(&str, Pin)],
    run: impl Fn(Admission, Vec<CompiledTask>) -> Pin,
) {
    let mut got = Vec::new();
    for (load, n) in LOADS {
        let set = tasks(pool, n);
        for (mode_name, mode) in MODES {
            got.push((format!("{load}/{mode_name}"), run(mode, set.clone())));
        }
    }
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", {v:?}),\n"))
        .collect();
    assert_eq!(got.len(), expected.len(), "{scheduler} grid:\n{table}");
    for ((k, v), (ek, ev)) in got.iter().zip(expected) {
        assert_eq!(
            (k.as_str(), v),
            (*ek, ev),
            "{scheduler} pin drifted; full grid:\n{table}"
        );
    }
}

fn run_sgprs(
    pool: ContextPoolSpec,
    tweak: impl Fn(&mut SgprsConfig),
) -> impl Fn(Admission, Vec<CompiledTask>) -> Pin {
    move |mode, set| {
        let mut cfg = SgprsConfig::new(pool.clone());
        cfg.admission = mode;
        tweak(&mut cfg);
        pin(&SgprsScheduler::new(cfg, set).run(end()))
    }
}

#[test]
fn sgprs_default_pins() {
    check("sgprs", &pool(), SGPRS_DEFAULT, run_sgprs(pool(), |_| {}));
}

#[test]
fn sgprs_three_context_pins() {
    check(
        "sgprs@3x2.0",
        &pool3(),
        SGPRS_3CTX_DEFAULT,
        run_sgprs(pool3(), |_| {}),
    );
}

#[test]
fn sgprs_fifo_pins() {
    check(
        "sgprs+fifo",
        &pool(),
        SGPRS_FIFO,
        run_sgprs(pool(), |c| c.queue_order = QueueOrder::Fifo),
    );
}

#[test]
fn naive_pins() {
    check("naive", &pool(), NAIVE, |mode, set| {
        let mut cfg = NaiveConfig::new(2);
        cfg.admission = mode;
        pin(&NaiveScheduler::new(cfg, set).run(end()))
    });
}

// Recorded values. A deliberate behaviour change regenerates a table from
// the grid printed by the failing assertion.

const SGPRS_DEFAULT: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 688084528]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 688084528]),
    (
        "over/frame-buffer",
        [450, 290, 134, 156, 130, 0, 9228305245],
    ),
    (
        "over/skip-if-busy",
        [450, 271, 122, 149, 149, 0, 9039717750],
    ),
];

const SGPRS_FIFO: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 681733947]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 681733947]),
    (
        "over/frame-buffer",
        [450, 290, 130, 160, 130, 0, 9232471981],
    ),
    (
        "over/skip-if-busy",
        [450, 271, 122, 149, 149, 0, 9027993594],
    ),
];

const SGPRS_3CTX_DEFAULT: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 674113886]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 674113886]),
    (
        "over/frame-buffer",
        [450, 327, 204, 123, 93, 0, 10336212105],
    ),
    (
        "over/skip-if-busy",
        [450, 293, 166, 127, 127, 0, 9149278196],
    ),
];

const NAIVE: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 880315151]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 880315151]),
    ("over/frame-buffer", [450, 156, 0, 156, 246, 0, 12535765018]),
    ("over/skip-if-busy", [450, 156, 0, 156, 264, 0, 9851179836]),
];
