//! Scenario definitions mirroring §V of the paper.
//!
//! The evaluation uses identical periodic tasks: ResNet18 with a 224×224
//! input at 30 fps and an explicit deadline equal to the period, each task
//! divided into six stages. Scenario 1 uses a pool of two contexts,
//! Scenario 2 three contexts; SGPRS variants differ in the
//! over-subscription level `os ∈ {1.0, 1.5, 2.0}` (written `SGPRS os`).

use crate::generator::compile_model_task;
use serde::{Deserialize, Serialize};
use sgprs_core::{
    CompiledTask, ContextPoolSpec, RunMetrics, Scheduler, SchedulerKind, DEFAULT_WARMUP,
};
use sgprs_dnn::models;
use sgprs_gpu_sim::{GpuSpec, DEFAULT_SEED};
use sgprs_rt::{SimDuration, SimTime};

/// The paper's task rate: 30 frames per second.
pub const PAPER_FPS: f64 = 30.0;

/// The paper's stage count: each task is divided into six stages.
pub const PAPER_STAGES: usize = 6;

/// One curve of Figures 3/4: a scheduler variant over a context pool,
/// evaluated at varying task counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Curve label (e.g. `"SGPRS 1.5 (np=3)"`).
    pub label: String,
    /// Number of contexts `np`.
    pub contexts: usize,
    /// Scheduler variant.
    pub scheduler: SchedulerKind,
    /// Stages per task.
    pub stages: usize,
    /// Task release rate in frames per second.
    pub fps: f64,
    /// Simulated wall-clock length of each run.
    pub sim: SimDuration,
    /// Jitter seed (deterministic runs).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a scenario with the paper's task parameters.
    #[must_use]
    pub fn new(contexts: usize, scheduler: SchedulerKind, sim_secs: u64) -> Self {
        let label = format!("{scheduler} (np={contexts})");
        ScenarioSpec {
            label,
            contexts,
            scheduler,
            stages: PAPER_STAGES,
            fps: PAPER_FPS,
            sim: SimDuration::from_secs(sim_secs),
            seed: DEFAULT_SEED,
        }
    }

    /// The task period implied by the frame rate.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_fps(self.fps)
    }

    /// The context pool this scenario partitions the GPU into (SGPRS
    /// variants only; the naive baseline always uses an exact partition).
    #[must_use]
    pub fn pool(&self) -> ContextPoolSpec {
        ContextPoolSpec::new(self.contexts, self.scheduler.oversubscription())
    }

    /// Compiles `n` identical ResNet18 tasks for this scenario.
    #[must_use]
    pub fn compile_tasks(&self, n: usize) -> Vec<CompiledTask> {
        let net = models::resnet18(1, 224);
        let task = compile_model_task("resnet18", &net, self.fps, self.stages, &self.pool());
        (0..n)
            .map(|i| {
                let mut t = task.clone();
                t.spec.name = format!("resnet18-{i}");
                t
            })
            .collect()
    }

    /// Runs the scenario with `n` tasks and returns the metrics.
    #[must_use]
    pub fn run(&self, n: usize) -> RunMetrics {
        let tasks = self.compile_tasks(n);
        let gpu = GpuSpec::rtx_2080_ti();
        Scheduler::new(
            self.scheduler,
            self.contexts,
            gpu,
            self.seed,
            DEFAULT_WARMUP,
            tasks,
        )
        .run(SimTime::ZERO + self.sim)
    }
}

/// The four curves of Figure 3 (Scenario 1, `np = 2`): naive plus SGPRS at
/// `os ∈ {1.0, 1.5, 2.0}`.
#[must_use]
pub fn scenario1_variants(sim_secs: u64) -> Vec<ScenarioSpec> {
    variants_for(2, sim_secs)
}

/// The four curves of Figure 4 (Scenario 2, `np = 3`).
#[must_use]
pub fn scenario2_variants(sim_secs: u64) -> Vec<ScenarioSpec> {
    variants_for(3, sim_secs)
}

/// The paper's four curves over `contexts` contexts.
pub(crate) fn variants_for(contexts: usize, sim_secs: u64) -> Vec<ScenarioSpec> {
    let sgprs = |oversubscription| SchedulerKind::Sgprs { oversubscription };
    [SchedulerKind::Naive, sgprs(1.0), sgprs(1.5), sgprs(2.0)]
        .into_iter()
        .map(|kind| ScenarioSpec::new(contexts, kind, sim_secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_period_is_33_milliseconds() {
        let s = ScenarioSpec::new(2, SchedulerKind::Naive, 1);
        let p = s.period();
        assert_eq!(p.as_millis(), 33);
    }

    #[test]
    fn variants_cover_naive_and_three_os_levels() {
        let kinds: Vec<_> = scenario1_variants(1).iter().map(|s| s.scheduler).collect();
        let sgprs = |oversubscription| SchedulerKind::Sgprs { oversubscription };
        assert_eq!(
            kinds,
            [SchedulerKind::Naive, sgprs(1.0), sgprs(1.5), sgprs(2.0)]
        );
        assert!(scenario2_variants(1).iter().all(|s| s.contexts == 3));
    }

    #[test]
    fn compile_tasks_gives_unique_names() {
        let s = ScenarioSpec::new(2, SchedulerKind::Naive, 1);
        let tasks = s.compile_tasks(3);
        assert_eq!(tasks.len(), 3);
        assert_ne!(tasks[0].spec.name, tasks[1].spec.name);
        assert!(tasks.iter().all(|t| t.stage_count() == PAPER_STAGES));
    }

    #[test]
    fn naive_and_sgprs_scenarios_run() {
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::Sgprs {
                oversubscription: 1.5,
            },
        ] {
            let s = ScenarioSpec::new(2, kind, 1);
            let m = s.run(2);
            assert!(m.total_fps > 0.0, "{kind}: {m:?}");
        }
    }

    #[test]
    fn labels_are_descriptive() {
        // The reports pick curves by these labels' prefixes.
        let labels: Vec<String> = scenario1_variants(1)
            .into_iter()
            .chain(scenario2_variants(1))
            .map(|s| s.label)
            .collect();
        assert_eq!(
            labels,
            [
                "naive (np=2)",
                "SGPRS 1.0 (np=2)",
                "SGPRS 1.5 (np=2)",
                "SGPRS 2.0 (np=2)",
                "naive (np=3)",
                "SGPRS 1.0 (np=3)",
                "SGPRS 1.5 (np=3)",
                "SGPRS 2.0 (np=3)",
            ]
        );
    }
}
