//! Offline capacity analysis: predicting pivot points before simulating.
//!
//! The experiment harness sweeps task counts to *find* the pivot point;
//! this module *predicts* it from first principles, which serves two
//! purposes: (a) sanity-checking the simulator (the measured pivot must
//! bracket the fluid prediction) and (b) giving users a fast feasibility
//! probe before they deploy a task set.
//!
//! The model is the same occupancy argument the contention model is built
//! on: with `np` contexts of `sm` SMs each running up to `k` concurrent
//! stages, the pool demands `np · k · s_mix(sm / k̄)` SM-equivalents, the
//! device delivers at most `min(demand, M)` of them, and each inference
//! consumes `T₁` SM-seconds of single-SM work.

use crate::{CompiledTask, ContextPoolSpec};
use sgprs_gpu_sim::SpeedupModel;

/// Fluid-model capacity estimate for a pool running copies of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEstimate {
    /// Aggregate delivered throughput in SM-equivalents (≤ physical SMs).
    pub delivered_sm_equivalents: f64,
    /// Sustainable inferences per second.
    pub max_fps: f64,
    /// Predicted pivot point for the given per-task rate.
    pub pivot_tasks: usize,
}

/// Estimates pool capacity for identical copies of `task` released at
/// `fps` frames per second, assuming each context keeps `concurrency`
/// stages resident (the paper's stream layout allows up to 4; saturated
/// SGPRS typically sustains 3–4).
///
/// # Example
///
/// ```
/// use sgprs_core::{analysis, offline, ContextPoolSpec};
/// use sgprs_dnn::{models, CostModel};
/// use sgprs_rt::SimDuration;
///
/// let pool = ContextPoolSpec::new(3, 1.5);
/// let task = offline::compile_network_task(
///     "t", &models::resnet18(1, 224), &CostModel::calibrated(), 6,
///     SimDuration::from_micros(33_333), &pool,
/// ).unwrap();
/// let est = analysis::estimate_capacity(&task, &pool, 30.0, 4.0);
/// assert!(est.pivot_tasks >= 20 && est.pivot_tasks <= 30);
/// ```
#[must_use]
pub fn estimate_capacity(
    task: &CompiledTask,
    pool: &ContextPoolSpec,
    fps: f64,
    concurrency: f64,
) -> CapacityEstimate {
    let speedup = SpeedupModel::calibrated_rtx_2080_ti();
    let total_sms = f64::from(pool.gpu.total_sms);
    let allocations = pool.sm_allocations();
    // Occupancy demanded: each context runs `concurrency` stages, each on
    // an even share of the context's SMs, at the whole-network op mix.
    let demand: f64 = allocations
        .iter()
        .map(|&sm| {
            let m_eff = f64::from(sm) / concurrency;
            concurrency * task.whole_profile.effective_speedup(&speedup, m_eff)
        })
        .sum();
    let delivered = demand.min(total_sms);
    // Each inference consumes T1 seconds of single-SM work.
    let t1_secs = task.whole_profile.total_single_sm_ns() / 1e9;
    let max_fps = if t1_secs > 0.0 {
        delivered / t1_secs
    } else {
        f64::INFINITY
    };
    let pivot_tasks = if fps > 0.0 {
        (max_fps / fps).floor() as usize
    } else {
        0
    };
    CapacityEstimate {
        delivered_sm_equivalents: delivered,
        max_fps,
        pivot_tasks,
    }
}

/// Estimates the naive baseline's capacity: `np` partitions each running
/// one whole network at a time, plus the per-job partition-switch tax.
#[must_use]
pub fn estimate_naive_capacity(
    task: &CompiledTask,
    partitions: usize,
    switch_ns: f64,
    fps: f64,
) -> CapacityEstimate {
    let speedup = SpeedupModel::calibrated_rtx_2080_ti();
    let pool = ContextPoolSpec::new(partitions, 1.0);
    let allocations = pool.sm_allocations();
    let mut total_fps = 0.0;
    let mut delivered = 0.0;
    for &sm in &allocations {
        let t_ns = task.whole_profile.duration_ns_at(&speedup, f64::from(sm)) + switch_ns;
        if t_ns > 0.0 {
            total_fps += 1e9 / t_ns;
        }
        delivered += task
            .whole_profile
            .effective_speedup(&speedup, f64::from(sm));
    }
    CapacityEstimate {
        delivered_sm_equivalents: delivered,
        max_fps: total_fps,
        pivot_tasks: if fps > 0.0 {
            (total_fps / fps).floor() as usize
        } else {
            0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use sgprs_dnn::{models, CostModel};
    use sgprs_rt::SimDuration;

    fn task_for(pool: &ContextPoolSpec) -> CompiledTask {
        offline::compile_network_task(
            "t",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            pool,
        )
        .unwrap()
    }

    #[test]
    fn sgprs_prediction_brackets_the_measured_pivot() {
        // Measured Scenario-2 pivot (the `fig4_scenario2` bench bin): 24
        // tasks.
        let pool = ContextPoolSpec::new(3, 1.5);
        let est = estimate_capacity(&task_for(&pool), &pool, 30.0, 4.0);
        assert!(
            (20..=30).contains(&est.pivot_tasks),
            "fluid pivot {} should bracket the measured 24",
            est.pivot_tasks
        );
    }

    #[test]
    fn delivered_never_exceeds_the_device() {
        for (np, os) in [(2, 1.0), (2, 2.0), (3, 1.5), (4, 2.0)] {
            let pool = ContextPoolSpec::new(np, os);
            let est = estimate_capacity(&task_for(&pool), &pool, 30.0, 4.0);
            assert!(est.delivered_sm_equivalents <= 68.0 + 1e-9);
        }
    }

    #[test]
    fn oversubscription_raises_predicted_capacity_when_unsaturated() {
        let p10 = ContextPoolSpec::new(2, 1.0);
        let p20 = ContextPoolSpec::new(2, 2.0);
        let e10 = estimate_capacity(&task_for(&p10), &p10, 30.0, 4.0);
        let e20 = estimate_capacity(&task_for(&p20), &p20, 30.0, 4.0);
        assert!(e20.max_fps >= e10.max_fps);
    }

    #[test]
    fn naive_prediction_is_below_sgprs() {
        let pool = ContextPoolSpec::new(3, 1.5);
        let task = task_for(&pool);
        let sgprs = estimate_capacity(&task, &pool, 30.0, 4.0);
        let naive = estimate_naive_capacity(&task, 3, 450_000.0, 30.0);
        assert!(naive.max_fps < sgprs.max_fps);
        assert!(naive.pivot_tasks < sgprs.pivot_tasks);
    }

    #[test]
    fn naive_prediction_matches_measured_ballpark() {
        // Measured naive Scenario-2 plateau ≈ 434 fps (the
        // `fig4_scenario2` bench bin).
        let pool = ContextPoolSpec::new(3, 1.0);
        let task = task_for(&pool);
        let naive = estimate_naive_capacity(&task, 3, 450_000.0, 30.0);
        assert!(
            (350.0..=550.0).contains(&naive.max_fps),
            "naive capacity {:.0} should be near the measured ~434 fps",
            naive.max_fps
        );
    }

    #[test]
    fn zero_rate_means_zero_pivot() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let est = estimate_capacity(&task_for(&pool), &pool, 0.0, 4.0);
        assert_eq!(est.pivot_tasks, 0);
    }
}
