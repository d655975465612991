//! Tenants: node-independent descriptions of periodic inference services.
//!
//! A fleet cannot store [`sgprs_core::CompiledTask`]s directly: WCETs are
//! profiled against a *specific* context pool, and a heterogeneous fleet
//! has a different pool per node (and migration moves tenants between
//! them). A [`TenantSpec`] is therefore the portable unit of work — model,
//! frame rate, stage count — compiled on demand for whichever node it
//! lands on.

use serde::{Deserialize, Serialize};
use sgprs_core::{offline, CompiledTask, ContextPoolSpec};
use sgprs_dnn::{models, partition, CostModel, Network, Stage};
use sgprs_rt::SimDuration;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The reference architectures a tenant can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// ResNet-18 (the paper's evaluation network).
    ResNet18,
    /// ResNet-34 (≈2× the ResNet-18 work).
    ResNet34,
    /// VGG-16 (the heavyweight of the zoo).
    Vgg16,
    /// AlexNet (light, dominated by its linear head).
    AlexNet,
    /// MobileNet (depthwise-separable; the lightest).
    MobileNet,
}

impl ModelKind {
    /// Builds the network at batch 1 and the paper's 224×224 input.
    #[must_use]
    pub fn network(self) -> Network {
        match self {
            ModelKind::ResNet18 => models::resnet18(1, 224),
            ModelKind::ResNet34 => models::resnet34(1, 224),
            ModelKind::Vgg16 => models::vgg16(1, 224),
            ModelKind::AlexNet => models::alexnet(1, 224),
            ModelKind::MobileNet => models::mobilenet(1, 224),
        }
    }

    /// Every model kind, in a stable order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::ResNet18,
        ModelKind::ResNet34,
        ModelKind::Vgg16,
        ModelKind::AlexNet,
        ModelKind::MobileNet,
    ];

    /// The whole-network work profile under the calibrated cost model,
    /// computed once per process.
    ///
    /// Admission decisions consult the profile on every placement
    /// attempt; rebuilding the layer graph each time would dominate the
    /// dispatch hot path, so the five reference profiles are cached.
    #[must_use]
    pub fn work_profile(self) -> &'static sgprs_gpu_sim::WorkProfile {
        use std::sync::OnceLock;
        static PROFILES: OnceLock<Vec<sgprs_gpu_sim::WorkProfile>> = OnceLock::new();
        let profiles = PROFILES.get_or_init(|| {
            let cost = CostModel::calibrated();
            ModelKind::ALL
                .iter()
                .map(|m| m.network().work_profile(&cost))
                .collect()
        });
        &profiles[self.index()]
    }

    /// Single-SM work per inference in seconds (`T₁`): the sum over
    /// [`Self::work_profile`], taken once per process, since every
    /// admission probe reads it.
    pub(crate) fn work_single_sm_secs(self) -> f64 {
        use std::sync::OnceLock;
        static T1: OnceLock<[f64; ModelKind::ALL.len()]> = OnceLock::new();
        T1.get_or_init(|| ModelKind::ALL.map(|m| m.work_profile().total_single_sm_ns() / 1e9))
            [self.index()]
    }

    /// The network split into `stages` stages (the offline phase's
    /// partition) under the calibrated cost model, computed once per
    /// process for each `(model, stages)` pair.
    ///
    /// The split reads neither the frame rate nor the context pool, so
    /// every compile of a tenant at this model and stage count shares
    /// it; a compile builds no network and only profiles the stages
    /// against its pool.
    ///
    /// # Panics
    ///
    /// Panics if the network cannot be split into `stages` stages
    /// (every reference network splits into at least nine).
    #[must_use]
    pub fn partition(self, stages: usize) -> Arc<[Stage]> {
        // Keyed by (model index, stage count); a BTreeMap, so nothing
        // about the cache depends on hash order.
        type Partitions = BTreeMap<(usize, usize), Arc<[Stage]>>;
        static PARTITIONS: Mutex<Partitions> = Mutex::new(BTreeMap::new());
        let mut partitions = PARTITIONS.lock().unwrap_or_else(PoisonError::into_inner);
        let split = partitions.entry((self.index(), stages)).or_insert_with(|| {
            partition::by_count(&self.network(), &CostModel::calibrated(), stages)
                .expect("reference networks split into small stage counts")
                .into()
        });
        Arc::clone(split)
    }

    /// This kind's position in [`ModelKind::ALL`]: the index of every
    /// per-model table.
    #[must_use]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// Stable short name for reports and task labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ResNet18 => "resnet18",
            ModelKind::ResNet34 => "resnet34",
            ModelKind::Vgg16 => "vgg16",
            ModelKind::AlexNet => "alexnet",
            ModelKind::MobileNet => "mobilenet",
        }
    }
}

impl core::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A periodic inference service as the dispatcher sees it: which model,
/// how often, and how finely staged — independent of any GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Unique tenant name.
    ///
    /// **Uniqueness contract:** the dispatcher keys removal, migration,
    /// and release phases on this name, so at most one *active* tenant
    /// (resident on a node or waiting in the dispatch queue) may carry
    /// it at a time. [`crate::Fleet::dispatch`] enforces this by
    /// rejecting a same-named arrival with
    /// [`crate::DispatchOutcome::Duplicate`] — without the check, a
    /// later `remove` would delete whichever instance it found first
    /// and leave a resident ghost simulated forever. A name becomes
    /// free again once the tenant departs.
    pub name: String,
    /// Served architecture.
    pub model: ModelKind,
    /// Frame rate in releases per second. For a freshly constructed
    /// tenant this is the *requested* rate; the dispatcher's re-pricing
    /// ladder may serve a clone of the spec at one of the degraded
    /// [`TenantSpec::fps_ladder`] steps instead (see
    /// [`crate::QueuePolicy`]), in which case this field carries the
    /// rate currently served.
    pub fps: f64,
    /// Stage count for the offline split (6 in the paper).
    pub stages: usize,
    /// How long the tenant is willing to wait in the dispatch queue
    /// before giving up. `None` waits forever. Under
    /// [`crate::QueuePolicy::EarliestDeadline`] the implied absolute
    /// deadline (enqueue instant + `max_wait`) also orders the queue.
    pub max_wait: Option<SimDuration>,
    /// The re-pricing ladder: degraded frame rates (strictly descending)
    /// the dispatcher may serve this tenant at when the requested rate is
    /// infeasible, upgrading back toward the requested rate at later
    /// epoch boundaries as capacity frees. Empty (the default) opts the
    /// tenant out of re-pricing.
    pub fps_ladder: Vec<f64>,
}

impl TenantSpec {
    /// Creates a tenant serving `model` at `fps` frames per second with
    /// the paper's six-stage split.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    #[must_use]
    pub fn new(name: impl Into<String>, model: ModelKind, fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "fps must be positive, got {fps}"
        );
        TenantSpec {
            name: name.into(),
            model,
            fps,
            stages: 6,
            max_wait: None,
            fps_ladder: Vec::new(),
        }
    }

    /// Overrides the stage count.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    #[must_use]
    pub fn with_stages(mut self, stages: usize) -> Self {
        assert!(stages > 0, "a tenant needs at least one stage");
        self.stages = stages;
        self
    }

    /// Sets the maximum time the tenant will wait in the dispatch queue.
    #[must_use]
    pub fn with_max_wait(mut self, max_wait: SimDuration) -> Self {
        self.max_wait = Some(max_wait);
        self
    }

    /// Sets the re-pricing ladder: degraded frame rates the dispatcher
    /// may fall back to, in strictly descending order.
    ///
    /// # Panics
    ///
    /// Panics if any step is not a positive finite number or the steps
    /// are not strictly descending.
    #[must_use]
    pub fn with_fps_ladder(mut self, steps: impl Into<Vec<f64>>) -> Self {
        let steps = steps.into();
        for pair in steps.windows(2) {
            assert!(pair[1] < pair[0], "ladder steps must strictly descend");
        }
        for &s in &steps {
            assert!(
                s.is_finite() && s > 0.0,
                "ladder steps must be positive, got {s}"
            );
        }
        self.fps_ladder = steps;
        self
    }

    /// The same tenant re-priced to serve at `fps` (name, model, ladder,
    /// and queueing attributes unchanged) — how the dispatcher models a
    /// degrade or upgrade: a partition switch on the resident node, not
    /// a migration.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    #[must_use]
    pub fn at_fps(&self, fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "fps must be positive, got {fps}"
        );
        let mut spec = self.clone();
        spec.fps = fps;
        spec
    }

    /// The ladder steps strictly below the currently served rate, in
    /// descending order — the degrade options open to the dispatcher.
    pub fn degrade_steps(&self) -> impl Iterator<Item = f64> + '_ {
        let fps = self.fps;
        self.fps_ladder.iter().copied().filter(move |&s| s < fps)
    }

    /// The release period implied by the frame rate.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        SimDuration::from_fps(self.fps)
    }

    /// Single-SM work per inference in seconds (`T₁` of the fluid model):
    /// the currency the admission controller budgets in.
    #[must_use]
    pub fn work_single_sm_secs(&self) -> f64 {
        self.model.work_single_sm_secs()
    }

    /// Steady-state demand in SM-equivalents: `fps × T₁` — the number of
    /// fully-utilised SMs this tenant consumes on an ideal fluid device.
    #[must_use]
    pub fn demand_sm_equivalents(&self) -> f64 {
        self.fps * self.work_single_sm_secs()
    }

    /// Compiles the tenant for a concrete context pool (the offline
    /// phase, run against the node the dispatcher chose). The model's
    /// partition and whole-network profile come from the process-wide
    /// caches ([`ModelKind::partition`], [`ModelKind::work_profile`]), so
    /// only the pool-dependent stage timing is computed here.
    ///
    /// # Panics
    ///
    /// Panics if the model cannot be split into `self.stages` stages
    /// (every reference network splits into at least nine).
    #[must_use]
    pub fn compile_for(&self, pool: &ContextPoolSpec) -> CompiledTask {
        self.compile_as(&self.name, pool)
    }

    /// [`Self::compile_for`], with the compiled task named `name` (the
    /// fleet's compile cache shares one task across tenants, unnamed).
    pub(crate) fn compile_as(&self, name: &str, pool: &ContextPoolSpec) -> CompiledTask {
        offline::compile_stages(
            name,
            &self.model.partition(self.stages),
            *self.model.work_profile(),
            self.period(),
            pool,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_rt::ReleaseTemplate;

    #[test]
    fn demand_scales_with_rate_and_model_weight() {
        let light = TenantSpec::new("a", ModelKind::MobileNet, 30.0);
        let heavy = TenantSpec::new("b", ModelKind::Vgg16, 30.0);
        assert!(heavy.demand_sm_equivalents() > light.demand_sm_equivalents());
        let faster = TenantSpec::new("c", ModelKind::MobileNet, 60.0);
        let ratio = faster.demand_sm_equivalents() / light.demand_sm_equivalents();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "demand is linear in fps: {ratio}"
        );
    }

    #[test]
    fn compile_for_profiles_against_the_pool() {
        let tenant = TenantSpec::new("cam0", ModelKind::ResNet18, 30.0);
        let small = tenant.compile_for(&ContextPoolSpec::new(3, 1.0));
        let large = tenant.compile_for(&ContextPoolSpec::new(2, 2.0));
        assert_eq!(small.stage_count(), 6);
        // Smaller contexts ⇒ pessimistic (longer) profiled WCETs.
        assert!(small.spec.wcet > large.spec.wcet);
        assert_eq!(small.spec.period, tenant.period());
    }

    #[test]
    fn model_indices_follow_the_all_order() {
        for (i, model) in ModelKind::ALL.into_iter().enumerate() {
            assert_eq!(model.index(), i, "{model}");
        }
    }

    #[test]
    fn every_model_kind_compiles() {
        let pool = ContextPoolSpec::new(2, 1.5);
        for model in [
            ModelKind::ResNet18,
            ModelKind::ResNet34,
            ModelKind::Vgg16,
            ModelKind::AlexNet,
            ModelKind::MobileNet,
        ] {
            let t = TenantSpec::new(format!("t-{model}"), model, 15.0).with_stages(4);
            let c = t.compile_for(&pool);
            assert!(c.is_consistent(), "{model}");
            assert_eq!(c.stage_count(), 4);
        }
    }

    #[test]
    fn compiled_templates_match_a_fresh_build() {
        // The offline phase's template is the one a release would have
        // rebuilt from the spec, and the cached partition compiles the
        // same task, bit for bit, as partitioning a freshly built network.
        let cost = CostModel::calibrated();
        for pool in [ContextPoolSpec::new(2, 1.0), ContextPoolSpec::new(3, 2.0)] {
            for model in ModelKind::ALL {
                for stages in [1, 3, 6, 9] {
                    let tenant = TenantSpec::new("t", model, 30.0).with_stages(stages);
                    let task = tenant.compile_for(&pool);
                    let case = format!("{model} × {stages} stages × {} contexts", pool.contexts);
                    assert_eq!(task.template(), &ReleaseTemplate::new(&task.spec), "{case}");
                    let fresh = offline::compile_network_task(
                        "t",
                        &model.network(),
                        &cost,
                        stages,
                        tenant.period(),
                        &pool,
                    )
                    .expect("reference networks split into nine stages");
                    assert_eq!(task, fresh, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fps must be positive")]
    fn zero_fps_panics() {
        let _ = TenantSpec::new("t", ModelKind::ResNet18, 0.0);
    }

    #[test]
    fn repricing_clone_keeps_identity_and_scales_demand() {
        let t = TenantSpec::new("cam", ModelKind::ResNet18, 30.0)
            .with_fps_ladder([24.0, 15.0])
            .with_max_wait(SimDuration::from_secs(2));
        let degraded = t.at_fps(15.0);
        assert_eq!(degraded.name, t.name);
        assert_eq!(degraded.max_wait, t.max_wait);
        assert_eq!(degraded.fps_ladder, t.fps_ladder);
        assert!((degraded.demand_sm_equivalents() - t.demand_sm_equivalents() / 2.0).abs() < 1e-9);
        // Degrade options are the ladder steps below the served rate.
        assert_eq!(t.degrade_steps().collect::<Vec<_>>(), vec![24.0, 15.0]);
        assert_eq!(degraded.degrade_steps().count(), 0, "already at the bottom");
        assert_eq!(
            t.at_fps(24.0).degrade_steps().collect::<Vec<_>>(),
            vec![15.0]
        );
    }

    #[test]
    #[should_panic(expected = "strictly descend")]
    fn non_descending_ladder_panics() {
        let _ = TenantSpec::new("t", ModelKind::ResNet18, 30.0).with_fps_ladder([15.0, 24.0]);
    }
}
