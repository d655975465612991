//! Calibration-sensitivity analysis.
//!
//! The simulator's absolute numbers depend on calibrated constants (the
//! contention efficiency loss β, the naive partition-switch cost, the
//! execution-time jitter). A reproduction is only trustworthy if the
//! paper's *qualitative* conclusions survive perturbations of those
//! constants. This module sweeps them and re-checks the two key claims:
//!
//! 1. every SGPRS variant pivots later than the naive baseline, and
//! 2. SGPRS's saturated FPS stays above the naive plateau.

use crate::{ScenarioSpec, SchedulerKind};
use serde::{Deserialize, Serialize};
use sgprs_core::{NaiveConfig, NaiveScheduler, SgprsConfig, SgprsScheduler};
use sgprs_gpu_sim::ContentionModel;
use sgprs_rt::{SimDuration, SimTime};

/// Result of one perturbed comparison run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Which knob was perturbed and to what value.
    pub knob: String,
    /// SGPRS total FPS at the probe load.
    pub sgprs_fps: f64,
    /// Naive total FPS at the probe load.
    pub naive_fps: f64,
    /// SGPRS miss rate.
    pub sgprs_dmr: f64,
    /// Naive miss rate.
    pub naive_dmr: f64,
    /// `true` when both paper claims hold under this perturbation.
    pub claims_hold: bool,
}

/// Probes one perturbed configuration at a saturating load (np=3,
/// os=1.5, 28 tasks).
#[must_use]
pub fn probe(
    knob: &str,
    contention: ContentionModel,
    switch_ns: f64,
    sim_secs: u64,
) -> SensitivityPoint {
    let spec = ScenarioSpec::new(
        3,
        SchedulerKind::Sgprs {
            oversubscription: 1.5,
        },
        sim_secs,
    );
    let tasks = spec.compile_tasks(28);
    let end = SimTime::ZERO + SimDuration::from_secs(sim_secs);

    let mut sgprs_cfg = SgprsConfig::new(spec.pool());
    sgprs_cfg.contention = contention;
    let sgprs = SgprsScheduler::new(sgprs_cfg, tasks.clone()).run(end);

    let mut naive_cfg = NaiveConfig::new(3);
    naive_cfg.contention = contention;
    naive_cfg.partition_switch_ns = switch_ns;
    let naive = NaiveScheduler::new(naive_cfg, tasks).run(end);

    let claims_hold = sgprs.total_fps > naive.total_fps && sgprs.dmr < naive.dmr;
    SensitivityPoint {
        knob: knob.to_owned(),
        sgprs_fps: sgprs.total_fps,
        naive_fps: naive.total_fps,
        sgprs_dmr: sgprs.dmr,
        naive_dmr: naive.dmr,
        claims_hold,
    }
}

/// Sweeps the calibrated constants over wide ranges.
#[must_use]
pub fn sweep(sim_secs: u64) -> Vec<SensitivityPoint> {
    let mut points = Vec::new();
    // Contention efficiency loss β: 0 (ideal) to 4x the calibrated value.
    for beta in [0.0, 0.02, 0.04, 0.08, 0.16] {
        let contention = ContentionModel {
            efficiency_loss: beta,
            ..ContentionModel::calibrated()
        };
        points.push(probe(
            &format!("efficiency_loss={beta}"),
            contention,
            450_000.0,
            sim_secs,
        ));
    }
    // Naive switch cost: zero to 4x.
    for switch_us in [0.0, 225.0, 450.0, 900.0, 1_800.0] {
        points.push(probe(
            &format!("switch_cost={switch_us}us"),
            ContentionModel::calibrated(),
            switch_us * 1e3,
            sim_secs,
        ));
    }
    // Jitter: none to 4x.
    for jitter in [0.0, 0.03, 0.06, 0.12, 0.24] {
        let contention = ContentionModel {
            contention_jitter: jitter,
            ..ContentionModel::calibrated()
        };
        points.push(probe(
            &format!("contention_jitter={jitter}"),
            contention,
            450_000.0,
            sim_secs,
        ));
    }
    points
}

/// Renders the sensitivity table.
#[must_use]
pub fn render(points: &[SensitivityPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>10} {:>10} {:>9} {:>9} {:>7}\n",
        "perturbation", "SGPRS fps", "naive fps", "SGPRS dmr", "naive dmr", "holds"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<26} {:>10.1} {:>10.1} {:>8.1}% {:>8.1}% {:>7}\n",
            p.knob,
            p.sgprs_fps,
            p.naive_fps,
            p.sgprs_dmr * 100.0,
            p.naive_dmr * 100.0,
            if p.claims_hold { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold_at_the_calibrated_point() {
        let p = probe("calibrated", ContentionModel::calibrated(), 250_000.0, 2);
        assert!(p.claims_hold, "{p:?}");
    }

    #[test]
    fn claims_hold_with_zero_switch_cost() {
        // Even a *free*-switching naive scheduler loses: the gap is not an
        // artefact of the switch-cost constant.
        let p = probe("no-switch", ContentionModel::calibrated(), 0.0, 2);
        assert!(p.claims_hold, "{p:?}");
    }

    #[test]
    fn claims_hold_under_ideal_contention() {
        let ideal_beta = ContentionModel {
            efficiency_loss: 0.0,
            ..ContentionModel::calibrated()
        };
        let p = probe("ideal", ideal_beta, 450_000.0, 2);
        assert!(p.claims_hold, "{p:?}");
    }

    #[test]
    fn render_flags_every_point() {
        let points = vec![probe("x", ContentionModel::calibrated(), 450_000.0, 1)];
        let table = render(&points);
        assert!(table.contains("x"));
        assert!(table.contains("yes") || table.contains("NO"));
    }
}
