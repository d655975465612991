//! Compiled tasks: the offline phase's output.

use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::WorkProfile;
use sgprs_rt::{PeriodicTaskSpec, ReleaseTemplate};
use std::sync::Arc;

/// A periodic DNN task after the offline phase: timing parameters plus the
/// per-stage GPU work profiles the simulator executes, and the release
/// template its timing implies.
///
/// `spec.stages[j]` and `stage_profiles[j]` describe the same stage: the
/// former carries the real-time view (WCET `Ci^j`, virtual deadline `Di^j`,
/// offline priority), the latter the device view (operation mix).
///
/// The release template (stage deadline offsets, sources, successor
/// lists) is built once by the offline phase, so attaching the task to a
/// scheduler copies and sorts nothing. It is derived from `spec`'s
/// deadline and stages: renaming, re-phasing or re-prioritising the task
/// keeps it valid, editing its timing or edges does not (schedulers
/// check [`ReleaseTemplate::fits`] in debug builds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledTask {
    /// The real-time task specification with all offline fields assigned.
    pub spec: PeriodicTaskSpec,
    /// One work profile per stage, aligned with `spec.stages`.
    pub stage_profiles: Vec<WorkProfile>,
    /// The whole network as a single profile (monolithic execution — what
    /// the naive baseline submits).
    pub whole_profile: WorkProfile,
    /// Release template of `spec`, built by the offline phase; shared, so
    /// cloning the task (one compile, many identical tasks) copies none
    /// of it.
    template: Arc<ReleaseTemplate>,
}

impl CompiledTask {
    /// Assembles a compiled task, building the release template of
    /// `spec` (the offline phase's last step).
    pub(crate) fn new(
        spec: PeriodicTaskSpec,
        stage_profiles: Vec<WorkProfile>,
        whole_profile: WorkProfile,
    ) -> Self {
        CompiledTask {
            template: Arc::new(ReleaseTemplate::new(&spec)),
            spec,
            stage_profiles,
            whole_profile,
        }
    }

    /// What every release of the task shares: stage deadline offsets,
    /// sources and successor lists (§IV-B1).
    #[must_use]
    pub fn template(&self) -> &ReleaseTemplate {
        &self.template
    }

    /// The task's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.spec.stages.len()
    }

    /// Validates the internal alignment invariants (used by tests and
    /// debug assertions).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.spec.stages.len() == self.stage_profiles.len()
            && self.template.fits(&self.spec)
            && !self.whole_profile.is_empty()
            && self.stage_profiles.iter().all(|p| !p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use crate::ContextPoolSpec;
    use sgprs_dnn::{models, CostModel};
    use sgprs_rt::SimDuration;

    #[test]
    fn compiled_resnet18_is_consistent() {
        let task = crate::offline::compile_network_task(
            "t",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            6,
            SimDuration::from_micros(33_333),
            &ContextPoolSpec::new(2, 1.0),
        )
        .unwrap();
        assert!(task.is_consistent());
        assert_eq!(task.stage_count(), 6);
        assert_eq!(task.name(), "t");
    }
}
