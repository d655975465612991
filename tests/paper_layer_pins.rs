//! Exact-output pins for the paper-layer schedulers.
//!
//! Every scheduler (SGPRS in three configurations, the naive partitioner
//! and the reconfiguring partitioner) runs under every release-time
//! admission rule at an under-load and an overload point, and the
//! resulting counters must equal the recorded values exactly. A refactor
//! of the shared release, admission or completion code that changes a
//! single simulated decision fails here.

use sgprs_suite::core::{
    offline, Admission, CompiledTask, ContextPoolSpec, NaiveConfig, NaiveScheduler, QueueOrder,
    ReconfigConfig, ReconfigScheduler, RunMetrics, SgprsConfig, SgprsScheduler,
};
use sgprs_suite::dnn::{models, CostModel};
use sgprs_suite::rt::{SimDuration, SimTime};

/// `[released, completed, met, late, skipped, dropped, Σ response ns,
/// repartitions]` of one run.
type Pin = [u64; 8];

const MODES: [(&str, Admission); 3] = [
    ("frame-buffer", Admission::FrameBuffer),
    ("skip-if-busy", Admission::SkipIfBusy),
    ("queue-all", Admission::QueueAll),
];

/// Task counts of the under-load and overload points.
const LOADS: [(&str, usize); 2] = [("under", 6), ("over", 30)];

fn end() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(1)
}

fn pool() -> ContextPoolSpec {
    ContextPoolSpec::new(2, 1.5)
}

/// `n` 30-fps ResNet-18 tasks; `stagger_ms > 0` makes tenant `i` arrive
/// at `i · stagger_ms`.
fn tasks(n: usize, stagger_ms: u64) -> Vec<CompiledTask> {
    let base = offline::compile_network_task(
        "cam",
        &models::resnet18(1, 224),
        &CostModel::calibrated(),
        6,
        SimDuration::from_micros(33_333),
        &pool(),
    )
    .expect("six stages");
    (0..n)
        .map(|i| {
            let mut t = base.clone();
            t.spec.name = format!("cam-{i}");
            t.spec.phase = SimDuration::from_millis(stagger_ms * i as u64);
            t
        })
        .collect()
}

fn pin(m: &RunMetrics, repartitions: u64) -> Pin {
    [
        m.released,
        m.completed,
        m.met,
        m.late,
        m.skipped,
        m.dropped,
        m.response_samples_ns.iter().sum(),
        repartitions,
    ]
}

/// Runs `run(admission, tasks)` over the whole grid and compares every
/// row against `expected`, reporting all mismatches at once.
fn check(
    scheduler: &str,
    stagger_ms: u64,
    expected: &[(&str, Pin)],
    run: impl Fn(Admission, Vec<CompiledTask>) -> Pin,
) {
    let mut got = Vec::new();
    for (load, n) in LOADS {
        let set = tasks(n, stagger_ms);
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

fn run_sgprs(tweak: impl Fn(&mut SgprsConfig)) -> impl Fn(Admission, Vec<CompiledTask>) -> Pin {
    move |mode, set| {
        let mut cfg = SgprsConfig::new(pool());
        cfg.admission = mode;
        tweak(&mut cfg);
        pin(&SgprsScheduler::new(cfg, set).run(end()), 0)
    }
}

#[test]
fn sgprs_default_pins() {
    check("sgprs", 0, SGPRS_DEFAULT, run_sgprs(|_| {}));
}

#[test]
fn sgprs_abort_hopeless_pins() {
    check(
        "sgprs+abort",
        0,
        SGPRS_ABORT,
        run_sgprs(|c| c.abort_hopeless = true),
    );
}

#[test]
fn sgprs_fifo_overflow_pins() {
    check(
        "sgprs+fifo+overflow",
        0,
        SGPRS_FIFO_OVERFLOW,
        run_sgprs(|c| {
            c.queue_order = QueueOrder::Fifo;
            c.high_overflow_to_low = true;
        }),
    );
}

#[test]
fn naive_pins() {
    check("naive", 0, NAIVE, |mode, set| {
        let mut cfg = NaiveConfig::new(2);
        cfg.admission = mode;
        pin(&NaiveScheduler::new(cfg, set).run(end()), 0)
    });
}

#[test]
fn reconfig_pins() {
    check("reconfig", 40, RECONFIG, |mode, set| {
        let mut cfg = ReconfigConfig::new();
        cfg.base.admission = mode;
        let mut s = ReconfigScheduler::new(cfg, set);
        let m = s.run(end());
        pin(&m, s.repartition_count())
    });
}

// Recorded values. A deliberate behaviour change regenerates a table from
// the grid printed by the failing assertion.

const SGPRS_DEFAULT: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    ("under/queue-all", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    (
        "over/frame-buffer",
        [450, 290, 134, 156, 130, 0, 9228305245, 0],
    ),
    (
        "over/skip-if-busy",
        [450, 271, 122, 149, 149, 0, 9039717750, 0],
    ),
    ("over/queue-all", [450, 224, 0, 224, 0, 0, 44833229582, 0]),
];

const SGPRS_ABORT: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    ("under/queue-all", [90, 84, 84, 0, 0, 0, 688084528, 0]),
    (
        "over/frame-buffer",
        [450, 108, 62, 46, 0, 308, 3467580202, 0],
    ),
    (
        "over/skip-if-busy",
        [450, 131, 124, 7, 148, 141, 2876633632, 0],
    ),
    ("over/queue-all", [450, 138, 118, 20, 0, 261, 4147795495, 0]),
];

const SGPRS_FIFO_OVERFLOW: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 682102109, 0]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 682102109, 0]),
    ("under/queue-all", [90, 84, 84, 0, 0, 0, 682102109, 0]),
    (
        "over/frame-buffer",
        [450, 290, 130, 160, 130, 0, 9232776209, 0],
    ),
    (
        "over/skip-if-busy",
        [450, 271, 122, 149, 149, 0, 9028050065, 0],
    ),
    ("over/queue-all", [450, 224, 0, 224, 0, 0, 44833229582, 0]),
];

const NAIVE: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 84, 84, 0, 0, 0, 880315151, 0]),
    ("under/skip-if-busy", [90, 84, 84, 0, 0, 0, 880315151, 0]),
    ("under/queue-all", [90, 84, 84, 0, 0, 0, 880315151, 0]),
    (
        "over/frame-buffer",
        [450, 156, 0, 156, 246, 0, 12535765018, 0],
    ),
    (
        "over/skip-if-busy",
        [450, 156, 0, 156, 264, 0, 9851179836, 0],
    ),
    ("over/queue-all", [450, 0, 0, 0, 0, 0, 0, 0]),
];

const RECONFIG: &[(&str, Pin)] = &[
    ("under/frame-buffer", [90, 87, 87, 0, 0, 0, 752204035, 3]),
    ("under/skip-if-busy", [90, 87, 87, 0, 0, 0, 656142644, 2]),
    ("under/queue-all", [90, 87, 87, 0, 0, 0, 752149989, 2]),
    (
        "over/frame-buffer",
        [297, 257, 218, 39, 0, 0, 4739603966, 3],
    ),
    (
        "over/skip-if-busy",
        [297, 248, 226, 22, 23, 0, 4341228093, 2],
    ),
    ("over/queue-all", [297, 257, 218, 39, 0, 0, 4776052367, 2]),
];
