//! The offline phase of SGPRS (§IV-A).
//!
//! Three steps, executed once before the system goes online:
//!
//! 1. **Stage WCET measurement** (§IV-A2): each stage is profiled *in
//!    isolation* on a context of the pool's (smallest) SM allocation; a
//!    pessimism margin covers jitter the profiling run did not observe.
//! 2. **Virtual deadline assignment** (§IV-A2): the task's relative
//!    deadline `Di` is distributed over its stages proportionally to their
//!    WCET share, so `Σj Di^j = Di` exactly.
//! 3. **Two-level priority assignment** (§IV-A1): the final stage of every
//!    task gets high priority, all earlier stages low priority.

use crate::{CompiledTask, ContextPoolSpec};
use sgprs_dnn::{partition, CostModel, DnnError, Network, Stage};
use sgprs_gpu_sim::{KernelDesc, SpeedupModel, WorkProfile};
use sgprs_rt::{PeriodicTaskSpec, PriorityAssignment, SimDuration, StageSpec};

/// Pessimism margin applied on top of the profiled stage time (the paper
/// measures WCETs, which upper-bound observed times; 10 % covers the
/// simulator's bounded jitter).
pub const WCET_PESSIMISM: f64 = 1.10;

/// Profiles one work profile in isolation at `sm_alloc` SMs and returns
/// its pessimistic WCET.
///
/// This mirrors the paper's offline measurement: run the stage alone on
/// the partition it will execute on and take the worst case.
#[must_use]
pub fn profile_wcet(
    profile: &WorkProfile,
    speedup: &SpeedupModel,
    launch_overhead_ns: u64,
    sm_alloc: u32,
) -> SimDuration {
    let ns = launch_overhead_ns as f64 + profile.duration_ns_at(speedup, f64::from(sm_alloc));
    SimDuration::from_nanos((ns * WCET_PESSIMISM).round() as u64)
}

/// Distributes the relative deadline over stages proportionally to their
/// WCETs (§IV-A2), guaranteeing the shares sum to the deadline exactly.
#[must_use]
pub fn assign_virtual_deadlines(wcets: &[SimDuration], deadline: SimDuration) -> Vec<SimDuration> {
    let total: u128 = wcets.iter().map(|w| u128::from(w.as_nanos())).sum();
    if total == 0 || wcets.is_empty() {
        return vec![SimDuration::ZERO; wcets.len()];
    }
    let d = u128::from(deadline.as_nanos());
    let mut out = Vec::with_capacity(wcets.len());
    let mut cum_wcet: u128 = 0;
    let mut assigned: u128 = 0;
    for w in wcets {
        cum_wcet += u128::from(w.as_nanos());
        // Cumulative share rounds, per-stage share is the difference:
        // avoids drift so the shares sum exactly to the deadline.
        let cum_share = d * cum_wcet / total;
        out.push(SimDuration::from_nanos((cum_share - assigned) as u64));
        assigned = cum_share;
    }
    out
}

/// Compiles a pre-partitioned stage list into a [`CompiledTask`].
///
/// `period` doubles as the implicit relative deadline, as in the paper's
/// evaluation (explicit deadlines equal to the 30-fps period).
#[must_use]
pub fn compile_stages(
    name: &str,
    stages: &[Stage],
    whole_profile: WorkProfile,
    period: SimDuration,
    pool: &ContextPoolSpec,
) -> CompiledTask {
    let speedup = SpeedupModel::calibrated_rtx_2080_ti();
    let reference_sm = pool.min_sm_allocation();
    let wcets: Vec<SimDuration> = stages
        .iter()
        .map(|s| {
            profile_wcet(
                &s.profile,
                &speedup,
                pool.gpu.launch_overhead_ns,
                reference_sm,
            )
        })
        .collect();
    let virtual_deadlines = assign_virtual_deadlines(&wcets, period);

    let mut builder = PeriodicTaskSpec::builder(name)
        .period(period)
        .deadline(period);
    for (j, stage) in stages.iter().enumerate() {
        let mut spec = StageSpec::new(stage.name.clone(), wcets[j])
            .with_work(stage.profile.total_single_sm_ns());
        if j > 0 {
            spec.predecessors = vec![j - 1];
        }
        spec.virtual_deadline = virtual_deadlines[j];
        builder = builder.stage(spec);
    }
    let mut spec = builder
        .build()
        .expect("offline-compiled tasks are valid by construction");
    PriorityAssignment::assign(&mut spec);
    CompiledTask {
        spec,
        stage_profiles: stages.iter().map(|s| s.profile).collect(),
        whole_profile,
    }
}

/// Compiles a network into a `k_stages`-stage periodic task: partition,
/// profile, assign virtual deadlines and priorities.
///
/// # Errors
///
/// Propagates [`DnnError::InvalidPartition`] for degenerate stage counts.
pub fn compile_network_task(
    name: &str,
    net: &Network,
    cost: &CostModel,
    k_stages: usize,
    period: SimDuration,
    pool: &ContextPoolSpec,
) -> Result<CompiledTask, DnnError> {
    let stages = partition::by_count(net, cost, k_stages)?;
    Ok(compile_stages(
        name,
        &stages,
        net.work_profile(cost),
        period,
        pool,
    ))
}

/// Convenience: the estimated isolated execution time of a compiled
/// task's whole network on `sm_alloc` SMs (the naive baseline's job
/// length).
#[must_use]
pub fn whole_task_duration(
    task: &CompiledTask,
    speedup: &SpeedupModel,
    launch_overhead_ns: u64,
    sm_alloc: u32,
) -> SimDuration {
    let desc = KernelDesc::new(task.name(), task.whole_profile);
    let ns = launch_overhead_ns as f64 + desc.work.duration_ns_at(speedup, f64::from(sm_alloc));
    SimDuration::from_nanos(ns.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_dnn::models;
    use sgprs_rt::PriorityLevel;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn compile_default() -> CompiledTask {
        compile_network_task(
            "t",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &ContextPoolSpec::new(2, 1.0),
        )
        .unwrap()
    }

    #[test]
    fn virtual_deadlines_sum_to_the_deadline() {
        let wcets = vec![ms(1), ms(2), ms(3), ms(5)];
        let vds = assign_virtual_deadlines(&wcets, ms(33));
        let sum = vds.iter().fold(SimDuration::ZERO, |a, &b| a + b);
        assert_eq!(sum, ms(33));
    }

    #[test]
    fn virtual_deadlines_are_proportional_to_wcet() {
        let wcets = vec![ms(1), ms(3)];
        let vds = assign_virtual_deadlines(&wcets, ms(40));
        assert_eq!(vds[0], ms(10));
        assert_eq!(vds[1], ms(30));
    }

    #[test]
    fn zero_wcets_give_zero_deadlines() {
        let vds = assign_virtual_deadlines(&[SimDuration::ZERO; 3], ms(10));
        assert!(vds.iter().all(|d| d.is_zero()));
    }

    #[test]
    fn empty_stage_list_is_empty() {
        assert!(assign_virtual_deadlines(&[], ms(10)).is_empty());
    }

    #[test]
    fn compiled_task_has_paper_priorities() {
        let t = compile_default();
        let n = t.spec.stages.len();
        for (j, s) in t.spec.stages.iter().enumerate() {
            let expected = if j == n - 1 {
                PriorityLevel::High
            } else {
                PriorityLevel::Low
            };
            assert_eq!(s.priority, expected, "stage {j}");
        }
    }

    #[test]
    fn compiled_task_forms_a_chain() {
        let t = compile_default();
        for (j, s) in t.spec.stages.iter().enumerate() {
            if j == 0 {
                assert!(s.predecessors.is_empty());
            } else {
                assert_eq!(s.predecessors, vec![j - 1]);
            }
        }
    }

    #[test]
    fn stage_wcets_are_positive_and_pessimistic() {
        let t = compile_default();
        let speedup = SpeedupModel::calibrated_rtx_2080_ti();
        for (j, s) in t.spec.stages.iter().enumerate() {
            assert!(!s.wcet.is_zero(), "stage {j} WCET");
            let nominal = t.stage_profiles[j].duration_at(&speedup, 34.0);
            assert!(
                s.wcet.as_nanos() as f64 >= nominal.as_nanos() as f64,
                "WCET must dominate the nominal time"
            );
        }
    }

    #[test]
    fn task_is_feasible_at_thirty_fps() {
        // A single ResNet18 on half the GPU must fit well within 33 ms —
        // otherwise the paper's 20+-task pivot points would be impossible.
        let t = compile_default();
        let total = t.spec.total_stage_wcet();
        assert!(
            total < SimDuration::from_micros(33_333),
            "total stage WCET {total} exceeds the period"
        );
    }

    #[test]
    fn whole_task_duration_shrinks_with_sms() {
        let t = compile_default();
        let speedup = SpeedupModel::calibrated_rtx_2080_ti();
        let d34 = whole_task_duration(&t, &speedup, 5_000, 34);
        let d68 = whole_task_duration(&t, &speedup, 5_000, 68);
        assert!(d68 < d34);
    }

    #[test]
    fn profile_wcet_includes_margin() {
        let t = compile_default();
        let speedup = SpeedupModel::calibrated_rtx_2080_ti();
        let raw = t.stage_profiles[0].duration_ns_at(&speedup, 34.0);
        let wcet = profile_wcet(&t.stage_profiles[0], &speedup, 0, 34);
        let ratio = wcet.as_nanos() as f64 / raw;
        assert!((WCET_PESSIMISM - 0.01..=WCET_PESSIMISM + 0.01).contains(&ratio));
    }
}
