//! The event path's fluid execution model.
//!
//! Event mode serves each node's jobs under a fluid approximation of
//! the paper-layer [`sgprs_core::Scheduler`] the epoch path steps, with
//! the same qualitative behaviour:
//!
//! * **Load stretch** — a job of a tenant with period `P`, released on a
//!   node whose resident demand is `D` SM-equivalents against an
//!   effective capacity `C`, takes `max(best_case, P · D/C)` to finish,
//!   scaled by a small deterministic jitter. Under admission-respecting
//!   load (`D ≤ 0.9 C` on SGPRS nodes) jobs finish inside their period;
//!   past capacity the stretch makes frames late and the skip-if-busy
//!   policy drops the backlog — a DMR that grows with overload.
//! * **Scheduler variants** — an SGPRS node samples its capacity at the
//!   calibrated multi-stream concurrency (its partitions keep several
//!   stages resident, and switching costs nothing). Naive nodes
//!   execute whole networks sequentially on a single stream per
//!   partition, so their capacity is sampled at concurrency 1, and every
//!   job pays the calibrated partition-switch tax when tenants share a
//!   context — which is how "admission admits it, the node still
//!   misses" arises here exactly as on the epoch path (admission is
//!   deliberately scheduler-blind about execution efficiency).
//!
//! Everything a release needs apart from its jitter is a pure function
//! of the node's state: the demand and capacity of an SGPRS node are
//! the node's own cached [`FleetNode::total_demand`] and
//! [`FleetNode::capacity`], and best-case latency comes from its
//! per-model table. A naive node's concurrency-1 capacity and switch tax
//! are computed when asked. [`base_service`] turns them into a tenant's
//! period and unjittered service time, which the engine keeps per
//! tenant run keyed by `(node, version)` ([`FleetNode::version`]): a
//! release on an unchanged node only applies [`service_time`]'s jitter.

use crate::hash::splitmix64;
use crate::{FleetNode, ModelKind};
use sgprs_core::{NaiveConfig, SchedulerKind};
use sgprs_rt::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Relative half-width of the deterministic per-job jitter band.
const JITTER_SPAN: f64 = 0.03;

/// The node's demand/capacity ratio in SM-equivalents (the fluid stretch
/// factor); zero on an empty node.
fn load_ratio(node: &FleetNode) -> f64 {
    if node.tenants().is_empty() {
        return 0.0;
    }
    let (demand, capacity) = match node.spec.scheduler {
        SchedulerKind::Sgprs { .. } => (node.total_demand(), node.capacity()),
        // One stream per partition, whole networks in sequence.
        SchedulerKind::Naive => (
            node.total_demand() + switch_tax(node),
            node.capacity_sm_equivalents(&node.mixed_profile(None), 1.0),
        ),
    };
    if capacity > 0.0 {
        demand / capacity
    } else {
        0.0
    }
}

/// The release constants of a tenant serving `model` in `stages` stages
/// at `fps` on `node`: its period `P` and its base service time
/// `max(best_case, P · D/C)`, before jitter. Both are pure functions of
/// the price and the node's state.
pub(crate) fn base_service(
    node: &FleetNode,
    model: ModelKind,
    stages: usize,
    fps: f64,
) -> (SimDuration, SimDuration) {
    let rho = load_ratio(node);
    let best_case = node.best_case_latency(model, stages);
    let period = SimDuration::from_fps(fps);
    (period, best_case.max(period.mul_f64(rho)))
}

/// Service time of job `job_seq` of the tenant whose name hashes to
/// `name_hash` (see [`crate::hash::fnv1a`]), released on node `idx` of
/// a fleet seeded with `seed`, with base service `base`
/// ([`base_service`]): `base` scaled by the deterministic jitter.
pub(crate) fn service_time(
    seed: u64,
    base: SimDuration,
    idx: usize,
    name_hash: u64,
    job_seq: u64,
) -> SimDuration {
    base.mul_f64(jitter(seed, idx, name_hash, job_seq))
}

/// Deterministic multiplicative jitter in `[1 - J, 1 + J]`, a pure
/// function of `(fleet seed, node, tenant-name hash, job serial)` —
/// execution strategy can never change it. Callers pass
/// [`crate::hash::fnv1a`]`(name)`; the engine caches that hash per
/// tenant run, so the value is byte-identical to hashing the name in
/// place.
fn jitter(seed: u64, node: usize, name_hash: u64, job_seq: u64) -> f64 {
    let x = splitmix64(
        seed.wrapping_add((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(name_hash)
            .wrapping_add(job_seq.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    );
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - JITTER_SPAN + 2.0 * JITTER_SPAN * unit
}

/// The partition-switch demand a naive node pays, in
/// SM-equivalents: each job reconfigures its context to a different
/// tenant (whole-context stall at the calibrated
/// [`sgprs_core::NaiveConfig`] switch cost) whenever tenants share a
/// partition. SGPRS's zero-configuration switch makes this exactly
/// zero, so only naive nodes pay it.
fn switch_tax(node: &FleetNode) -> f64 {
    let contexts = node.spec.contexts.max(1);
    let per_ctx = node.tenants().len().div_ceil(contexts);
    if per_ctx < 2 {
        // A partition serving a single tenant never switches.
        return 0.0;
    }
    let switch_secs = NaiveConfig::new(contexts).switch_cost_ns(per_ctx) / 1e9;
    let sm_ctx = f64::from(node.spec.gpu.total_sms) / contexts as f64;
    node.tenants()
        .iter()
        .map(|t| t.fps * switch_secs * sm_ctx)
        .sum()
}

/// A sliding window of per-release outcomes feeding the node's DMR
/// estimate — the event path's migration trigger, evaluated at job-
/// release boundaries instead of once per epoch.
///
/// Outcomes arrive in time order: a skipped frame at its release, a
/// served frame's deadline sample when the engine applies it. The
/// window keeps a running count of the misses it holds, so [`Self::dmr`]
/// costs the pruning it does and nothing more.
#[derive(Debug, Default)]
pub(crate) struct MissWindow {
    samples: VecDeque<(SimTime, bool)>,
    /// How many of `samples` are misses.
    missed: usize,
}

/// Outcomes required in the window before the DMR estimate is trusted
/// (avoids migrating a node off the back of one or two early misses).
const MIN_WINDOW_SAMPLES: usize = 8;

impl MissWindow {
    /// Records one resolved release outcome at `t`, pruning outcomes
    /// that aged past `span` — so the window stays bounded even on
    /// nodes whose `dmr` is never consulted (e.g. single-tenant nodes,
    /// which are never migration sources).
    pub(crate) fn push(&mut self, t: SimTime, missed: bool, span: SimDuration) {
        debug_assert!(
            self.samples.back().is_none_or(|&(last, _)| last <= t),
            "miss-window outcomes must arrive in time order"
        );
        self.prune(t, span);
        self.samples.push_back((t, missed));
        self.missed += usize::from(missed);
    }

    /// Drops outcomes older than `now - span`.
    fn prune(&mut self, now: SimTime, span: SimDuration) {
        let cutoff = now.duration_since(SimTime::ZERO);
        let keep_from = if cutoff > span {
            SimTime::ZERO + (cutoff - span)
        } else {
            SimTime::ZERO
        };
        while let Some(&(t, missed)) = self.samples.front() {
            if t >= keep_from {
                break;
            }
            self.samples.pop_front();
            self.missed -= usize::from(missed);
        }
    }

    /// The miss rate over outcomes within the trailing `span` at `now`,
    /// or 0 while fewer than [`MIN_WINDOW_SAMPLES`] outcomes are inside
    /// the window.
    pub(crate) fn dmr(&mut self, now: SimTime, span: SimDuration) -> f64 {
        self.prune(now, span);
        if self.samples.len() < MIN_WINDOW_SAMPLES {
            return 0.0;
        }
        self.missed as f64 / self.samples.len() as f64
    }

    /// Forgets every outcome (hysteresis after shedding a tenant: the
    /// post-migration node earns a fresh estimate before it may shed
    /// again).
    pub(crate) fn clear(&mut self) {
        self.samples.clear();
        self.missed = 0;
    }

    /// The outcomes held, `(instant, missed)`, oldest first.
    #[cfg(test)]
    pub(super) fn outcomes(&self) -> impl Iterator<Item = (SimTime, bool)> + '_ {
        self.samples.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a;
    use crate::{AdmissionController, NodeSpec, TenantSpec};
    use sgprs_gpu_sim::GpuSpec;

    fn tenant(i: usize) -> TenantSpec {
        TenantSpec::new(format!("cam-{i}"), ModelKind::ResNet18, 30.0)
    }

    #[test]
    fn admission_respecting_sgprs_load_finishes_inside_the_period() {
        let mut node = FleetNode::new(NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti()));
        let admission = AdmissionController::default();
        // Fill to the admission bound, no further.
        while admission
            .evaluate(&node, &tenant(node.tenants().len()))
            .is_admit()
        {
            let i = node.tenants().len();
            node.push_tenant(tenant(i));
        }
        let rho = load_ratio(&node);
        assert!(rho > 0.5 && rho < 1.0, "bound-respecting load: {rho}");
        for job in 0..64 {
            let t = tenant(0);
            let (_, base) = base_service(&node, t.model, t.stages, t.fps);
            let s = service_time(7, base, 0, fnv1a(&t.name), job);
            assert!(
                s <= t.period(),
                "job {job} took {s} > period {} at rho {rho}",
                t.period()
            );
        }
    }

    #[test]
    fn overload_stretches_service_past_the_period() {
        let mut node = FleetNode::new(NodeSpec::sgprs("g", GpuSpec::synthetic(16)));
        for i in 0..12 {
            node.push_tenant(tenant(i));
        }
        let rho = load_ratio(&node);
        assert!(rho > 1.0, "12 tenants on 16 SMs must overload: {rho}");
        let t = tenant(0);
        let (_, base) = base_service(&node, t.model, t.stages, t.fps);
        let s = service_time(7, base, 0, fnv1a(&t.name), 0);
        assert!(s > t.period(), "{s} vs {}", t.period());
    }

    #[test]
    fn naive_nodes_miss_at_loads_their_admission_budget_accepts() {
        // The epoch path's "hot naive node" trap, reproduced by the fluid
        // model: a naive node filled to its own admission budget still
        // has demand above its sequential-execution capacity.
        let spec =
            NodeSpec::sgprs("naive", GpuSpec::rtx_2080_ti()).with_scheduler(SchedulerKind::Naive);
        let mut node = FleetNode::new(spec);
        let admission = AdmissionController::default();
        while admission
            .evaluate(&node, &tenant(node.tenants().len()))
            .is_admit()
        {
            let i = node.tenants().len();
            node.push_tenant(tenant(i));
        }
        let n = node.tenants().len();
        assert!(n >= 8, "the budget admits a crowd: {n}");
        let rho = load_ratio(&node);
        assert!(
            rho > 1.0,
            "sequential execution + switch tax must exceed capacity: {rho}"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_tightly_banded() {
        let seed = 0x5672_5053;
        let h = fnv1a("cam-0");
        for job in 0..100 {
            let j = jitter(seed, 1, h, job);
            assert_eq!(j, jitter(seed, 1, h, job));
            assert!((1.0 - JITTER_SPAN..=1.0 + JITTER_SPAN).contains(&j), "{j}");
        }
        assert_ne!(
            jitter(seed, 1, h, 0),
            jitter(seed, 1, h, 1),
            "jitter varies per job"
        );
    }

    #[test]
    fn miss_window_stays_bounded_without_a_dmr_consumer() {
        // Regression: pruning used to live only in `dmr`, so windows of
        // nodes whose estimate is never consulted (single-tenant nodes
        // are never migration sources) grew one entry per job forever.
        let mut w = MissWindow::default();
        let span = SimDuration::from_secs(1);
        for i in 0..10_000u64 {
            w.push(SimTime::ZERO + SimDuration::from_millis(i * 33), true, span);
        }
        assert!(
            w.samples.len() <= 32,
            "push prunes to the span (~30 samples at 33 ms): {}",
            w.samples.len()
        );
    }

    #[test]
    fn miss_window_running_count_matches_a_rescan() {
        let mut w = MissWindow::default();
        let span = SimDuration::from_millis(100);
        for i in 0..500u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(i * 7);
            w.push(t, i % 3 == 0 || i % 5 == 0, span);
            let rescan = w.samples.iter().filter(|&&(_, m)| m).count();
            assert_eq!(w.missed, rescan, "after push {i}");
            if i % 11 == 0 {
                let dmr = w.dmr(t + SimDuration::from_millis(40), span);
                let rescan = w.samples.iter().filter(|&&(_, m)| m).count();
                assert_eq!(w.missed, rescan, "after dmr {i}");
                if w.samples.len() >= MIN_WINDOW_SAMPLES {
                    assert_eq!(dmr, rescan as f64 / w.samples.len() as f64);
                }
            }
        }
        w.clear();
        assert_eq!((w.samples.len(), w.missed), (0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn miss_window_rejects_an_outcome_older_than_its_newest() {
        let mut w = MissWindow::default();
        let span = SimDuration::from_secs(1);
        w.push(SimTime::from_nanos(10), false, span);
        w.push(SimTime::from_nanos(9), true, span);
    }

    #[test]
    fn miss_window_prunes_and_gates_on_sample_count() {
        let mut w = MissWindow::default();
        let span = SimDuration::from_secs(1);
        for i in 0..MIN_WINDOW_SAMPLES as u64 - 1 {
            w.push(SimTime::from_nanos(i), true, span);
        }
        let now = SimTime::from_nanos(MIN_WINDOW_SAMPLES as u64);
        assert_eq!(w.dmr(now, span), 0.0, "too few samples to trust");
        w.push(now, true, span);
        assert!(w.dmr(now, span) > 0.99, "all misses once trusted");
        // Old samples age out of the window.
        let later = now + SimDuration::from_secs(2);
        assert_eq!(w.dmr(later, span), 0.0, "everything aged out");
        w.clear();
        assert_eq!(w.dmr(later, span), 0.0);
    }
}
