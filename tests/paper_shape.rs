//! End-to-end shape tests: the paper's qualitative claims must hold on
//! short simulations. (The full quantitative sweeps live in the
//! `sgprs-bench` binaries `fig3_scenario1` and `fig4_scenario2`.)

use sgprs_suite::core::{NaiveConfig, NaiveScheduler, SgprsConfig, SgprsScheduler};
use sgprs_suite::rt::{SimDuration, SimTime};
use sgprs_suite::workload::{fig1, ScenarioSpec, SchedulerKind};

fn run_scenario(
    contexts: usize,
    kind: SchedulerKind,
    n: usize,
    secs: u64,
) -> sgprs_suite::core::RunMetrics {
    ScenarioSpec::new(contexts, kind, secs).run(n)
}

const SGPRS_15: SchedulerKind = SchedulerKind::Sgprs {
    oversubscription: 1.5,
};

#[test]
fn figure1_endpoints_hold_end_to_end() {
    let curves = fig1::generate();
    let peak = |label: &str| {
        curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("curve {label}"))
            .peak()
    };
    assert!((peak("convolution") - 32.0).abs() < 0.5);
    assert!((peak("max_pool") - 14.0).abs() < 0.5);
    let net = peak("resnet18 (end-to-end)");
    assert!((21.0..=25.0).contains(&net), "resnet18 ~23x, got {net:.1}");
}

#[test]
fn naive_misses_where_sgprs_is_clean() {
    // Scenario 1 at 16 tasks: past the naive pivot, before the SGPRS one.
    let naive = run_scenario(2, SchedulerKind::Naive, 16, 2);
    let sgprs = run_scenario(2, SGPRS_15, 16, 2);
    assert!(!naive.is_miss_free(), "naive at 16 tasks: {naive:?}");
    assert!(
        sgprs.is_miss_free(),
        "sgprs 1.5 at 16 tasks: late={} skipped={} dropped={}",
        sgprs.late,
        sgprs.skipped,
        sgprs.dropped
    );
}

#[test]
fn sgprs_beats_naive_at_saturation() {
    let naive = run_scenario(3, SchedulerKind::Naive, 30, 2);
    let sgprs = run_scenario(3, SGPRS_15, 30, 2);
    assert!(
        sgprs.total_fps > naive.total_fps * 1.3,
        "sgprs {:.0} fps should clearly beat naive {:.0} fps",
        sgprs.total_fps,
        naive.total_fps
    );
    assert!(
        sgprs.dmr < naive.dmr,
        "sgprs dmr {:.2} must be below naive {:.2}",
        sgprs.dmr,
        naive.dmr
    );
}

#[test]
fn naive_dmr_collapses_drastically_at_overload() {
    let naive = run_scenario(2, SchedulerKind::Naive, 30, 2);
    assert!(naive.dmr > 0.8, "domino effect: {:.2}", naive.dmr);
}

#[test]
fn scenario1_fps_increases_with_oversubscription() {
    // §V: "in Figure 3a the FPS always increases relative to the
    // over-subscription factor" — check at a saturating task count.
    let fps_of = |os: f64| {
        run_scenario(
            2,
            SchedulerKind::Sgprs {
                oversubscription: os,
            },
            28,
            2,
        )
        .total_fps
    };
    let f10 = fps_of(1.0);
    let f15 = fps_of(1.5);
    let f20 = fps_of(2.0);
    assert!(
        f10 < f15 && f15 < f20,
        "Scenario 1 ordering: 1.0={f10:.0} 1.5={f15:.0} 2.0={f20:.0}"
    );
}

#[test]
fn scenario2_has_an_oversubscription_sweet_spot() {
    // §V: with three contexts, os=1.5 edges out os=2.0.
    let fps_of = |os: f64| {
        run_scenario(
            3,
            SchedulerKind::Sgprs {
                oversubscription: os,
            },
            30,
            3,
        )
        .total_fps
    };
    let f15 = fps_of(1.5);
    let f20 = fps_of(2.0);
    assert!(
        f15 > f20 * 0.99,
        "Scenario 2: 1.5 ({f15:.0}) should at least match 2.0 ({f20:.0})"
    );
}

#[test]
fn sgprs_sustains_fps_past_the_pivot() {
    // The headline §V claim: SGPRS variations "not only can sustain total
    // FPS, but their DMR increases with a moderate slope".
    let at_25 = run_scenario(3, SGPRS_15, 25, 3);
    let at_30 = run_scenario(3, SGPRS_15, 30, 3);
    assert!(
        at_30.total_fps > at_25.total_fps * 0.9,
        "FPS must be sustained: 25 tasks -> {:.0}, 30 tasks -> {:.0}",
        at_25.total_fps,
        at_30.total_fps
    );
    assert!(
        at_30.dmr < 0.75,
        "moderate DMR at 30 tasks: {:.2}",
        at_30.dmr
    );
}

#[test]
fn naive_fps_degrades_past_its_pivot_peak() {
    // After its pivot the naive scheduler's FPS falls below the linear
    // ramp and locks onto a plateau (switch tax + head-of-line blocking).
    let at_14 = run_scenario(3, SchedulerKind::Naive, 14, 2);
    let at_30 = run_scenario(3, SchedulerKind::Naive, 30, 2);
    assert!(
        at_30.total_fps < 30.0 * 30.0 * 0.6,
        "naive cannot keep up with 30 tasks: {:.0}",
        at_30.total_fps
    );
    // The plateau stays in the vicinity of the peak, not at zero.
    assert!(at_30.total_fps > at_14.total_fps * 0.8);
}

#[test]
fn schedulers_agree_under_light_load() {
    // One task is trivially schedulable for everyone.
    let pool = sgprs_suite::core::ContextPoolSpec::new(2, 1.0);
    let spec = ScenarioSpec::new(2, SchedulerKind::Naive, 2);
    let tasks = spec.compile_tasks(1);
    let end = SimTime::ZERO + SimDuration::from_secs(2);
    let naive = NaiveScheduler::new(NaiveConfig::new(2), tasks.clone()).run(end);
    let sgprs = SgprsScheduler::new(SgprsConfig::new(pool), tasks).run(end);
    assert!(naive.is_miss_free());
    assert!(sgprs.is_miss_free());
    assert!((naive.total_fps - sgprs.total_fps).abs() < 2.0);
}
