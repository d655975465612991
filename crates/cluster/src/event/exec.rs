//! The event path's fluid execution model.
//!
//! Event mode cannot reuse the per-stage schedulers (they are
//! constructed per epoch over a fixed task set), so each node serves
//! jobs under a fluid approximation that keeps the same qualitative
//! behaviour the epoch path observes from the real schedulers:
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
//! Demand/capacity samples are cached per node and validated against
//! [`FleetNode::version`]. The node owns that counter together with its
//! resident aggregates: every mutation of its resident list bumps it, so
//! a change on node `i` recomputes only node `i`'s sample — not the
//! whole fleet's. Best-case latency is cached per
//! `(node, model, stages, fps)` in a per-node linear list (the distinct
//! price points per node are few), so the release hot path does no
//! hashing at all.

use crate::{AdmissionController, FleetNode, ModelKind, NodeScheduler, TenantSpec};
use sgprs_core::NaiveConfig;
use sgprs_rt::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Relative half-width of the deterministic per-job jitter band.
const JITTER_SPAN: f64 = 0.03;

/// One node's cached load sample.
#[derive(Debug, Clone, Copy)]
struct NodeLoad {
    demand: f64,
    capacity: f64,
}

/// One distinct price point on a node: `(model, stages, fps-bits)`
/// keying its memoised best-case latency.
type PricePoint = ((ModelKind, usize, u64), SimDuration);

/// The fluid execution model: cached per-node load and the service-time
/// function.
#[derive(Debug)]
pub(crate) struct FluidExec {
    seed: u64,
    /// Per-node `(node version, sample)` — valid while
    /// [`FleetNode::version`] still matches.
    loads: Vec<Option<(u64, NodeLoad)>>,
    /// Per-node [`PricePoint`] entries, scanned linearly: a node hosts
    /// only a handful of distinct price points, and a short scan beats
    /// hashing on the release hot path.
    best_case: Vec<Vec<PricePoint>>,
}

impl FluidExec {
    pub(crate) fn new(n_nodes: usize, seed: u64) -> Self {
        FluidExec {
            seed,
            loads: vec![None; n_nodes],
            best_case: vec![Vec::new(); n_nodes],
        }
    }

    /// The node's `(demand, capacity)` in SM-equivalents, sampled lazily
    /// and revalidated against [`FleetNode::version`] (bumped by every
    /// population or price mutation). The sample is a pure
    /// function of node state, so a version hit returns bit-identical
    /// values to a fresh compute.
    fn load(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        idx: usize,
    ) -> NodeLoad {
        let node = &nodes[idx];
        if let Some((v, l)) = self.loads[idx] {
            if v == node.version() {
                return l;
            }
        }
        let l = if node.tenants().is_empty() {
            NodeLoad {
                demand: 0.0,
                capacity: f64::from(node.spec.gpu.total_sms),
            }
        } else {
            let mix = node.mixed_profile(None);
            let concurrency = match node.spec.scheduler {
                NodeScheduler::Sgprs { .. } => admission.config().concurrency,
                // One stream per partition, whole networks in sequence.
                NodeScheduler::Naive => 1.0,
            };
            NodeLoad {
                demand: node.total_demand() + switch_tax(node),
                capacity: node.capacity_sm_equivalents(&mix, concurrency),
            }
        };
        self.loads[idx] = Some((node.version(), l));
        l
    }

    /// The node's demand/capacity ratio (the fluid stretch factor).
    pub(crate) fn load_ratio(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        idx: usize,
    ) -> f64 {
        let l = self.load(nodes, admission, idx);
        if l.capacity > 0.0 {
            l.demand / l.capacity
        } else {
            0.0
        }
    }

    /// Service time of one job released on node `idx` by a tenant
    /// serving `model` in `stages` stages at `fps`:
    /// `max(best_case, period · D/C)` scaled by the deterministic jitter
    /// for `(name, job_seq)`. Takes the price-dependent fields by value
    /// — and the tenant name pre-hashed (see [`fnv1a`]) — so the release
    /// hot path neither clones a [`TenantSpec`] nor re-hashes a string.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn service_time(
        &mut self,
        nodes: &[FleetNode],
        admission: &AdmissionController,
        idx: usize,
        model: ModelKind,
        stages: usize,
        fps: f64,
        name_hash: u64,
        job_seq: u64,
    ) -> SimDuration {
        let rho = self.load_ratio(nodes, admission, idx);
        let key = (model, stages, fps.to_bits());
        let cached = self.best_case[idx]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, bcl)| bcl);
        let bcl = match cached {
            Some(bcl) => bcl,
            None => {
                // Only a cache miss pays for the probe spec (the name is
                // irrelevant to the latency bound).
                let probe = TenantSpec::new("bcl-probe", model, fps).with_stages(stages);
                let bcl = admission.best_case_latency(&nodes[idx], &probe);
                self.best_case[idx].push((key, bcl));
                bcl
            }
        };
        let period = SimDuration::from_secs_f64(1.0 / fps);
        let base = bcl.max(period.mul_f64(rho));
        base.mul_f64(self.jitter(idx, name_hash, job_seq))
    }

    /// Deterministic multiplicative jitter in `[1 - J, 1 + J]`, a pure
    /// function of `(fleet seed, node, tenant-name hash, job serial)` —
    /// execution strategy can never change it. Callers pass
    /// [`fnv1a`]`(name)`; the engine caches that hash per tenant run, so
    /// the value is byte-identical to hashing the name in place.
    fn jitter(&self, node: usize, name_hash: u64, job_seq: u64) -> f64 {
        let mut x = self
            .seed
            .wrapping_add((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(name_hash)
            .wrapping_add(job_seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        // splitmix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        1.0 - JITTER_SPAN + 2.0 * JITTER_SPAN * unit
    }
}

/// FNV-1a over the tenant name: a stable, dependency-free string hash
/// (the std hasher is seeded per process and would break determinism).
/// The engine hashes each name once when a tenant run starts and feeds
/// the cached value to [`FluidExec::service_time`] on every release.
pub(super) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The partition-switch demand a naive node pays, in
/// SM-equivalents: each job reconfigures its context to a different
/// tenant (whole-context stall at the calibrated
/// [`sgprs_core::NaiveConfig`] switch cost) whenever tenants share a
/// partition. SGPRS's zero-configuration switch makes this exactly zero.
fn switch_tax(node: &FleetNode) -> f64 {
    if matches!(node.spec.scheduler, NodeScheduler::Sgprs { .. }) {
        return 0.0;
    }
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
    use crate::NodeSpec;
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
        let nodes = vec![node];
        let mut exec = FluidExec::new(1, 7);
        let rho = exec.load_ratio(&nodes, &admission, 0);
        assert!(rho > 0.5 && rho < 1.0, "bound-respecting load: {rho}");
        for job in 0..64 {
            let t = tenant(0);
            let s = exec.service_time(
                &nodes,
                &admission,
                0,
                t.model,
                t.stages,
                t.fps,
                fnv1a(&t.name),
                job,
            );
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
        let admission = AdmissionController::default();
        let nodes = vec![node];
        let mut exec = FluidExec::new(1, 7);
        let rho = exec.load_ratio(&nodes, &admission, 0);
        assert!(rho > 1.0, "12 tenants on 16 SMs must overload: {rho}");
        let t = tenant(0);
        let s = exec.service_time(
            &nodes,
            &admission,
            0,
            t.model,
            t.stages,
            t.fps,
            fnv1a(&t.name),
            0,
        );
        assert!(s > t.period(), "{s} vs {}", t.period());
    }

    #[test]
    fn naive_nodes_miss_at_loads_their_admission_budget_accepts() {
        // The epoch path's "hot naive node" trap, reproduced by the fluid
        // model: a naive node filled to its own admission budget still
        // has demand above its sequential-execution capacity.
        let spec =
            NodeSpec::sgprs("naive", GpuSpec::rtx_2080_ti()).with_scheduler(NodeScheduler::Naive);
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
        let nodes = vec![node];
        let mut exec = FluidExec::new(1, 7);
        let rho = exec.load_ratio(&nodes, &admission, 0);
        assert!(
            rho > 1.0,
            "sequential execution + switch tax must exceed capacity: {rho}"
        );
    }

    #[test]
    fn load_cache_revalidates_on_version_bump() {
        let spec = NodeSpec::sgprs("g", GpuSpec::rtx_2080_ti());
        let mut node = FleetNode::new(spec.clone());
        node.push_tenant(tenant(0));
        let admission = AdmissionController::default();
        let mut nodes = vec![node];
        let mut exec = FluidExec::new(1, 7);
        let before = exec.load_ratio(&nodes, &admission, 0);
        // A heavier node at the same version: the cache keys on the
        // version alone, so it must serve the first node's sample.
        let mut twin = FleetNode::new(spec);
        twin.push_tenant(TenantSpec::new("heavy", ModelKind::Vgg16, 15.0));
        assert_eq!(twin.version(), nodes[0].version());
        assert_eq!(
            exec.load_ratio(&[twin], &admission, 0),
            before,
            "an unbumped version serves the cached sample"
        );
        nodes[0].push_tenant(tenant(1));
        let after = exec.load_ratio(&nodes, &admission, 0);
        assert!(
            after > before,
            "the bumped version recomputes: {after} vs {before}"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_tightly_banded() {
        let exec = FluidExec::new(3, 0x5672_5053);
        let again = FluidExec::new(3, 0x5672_5053);
        let h = fnv1a("cam-0");
        for job in 0..100 {
            let j = exec.jitter(1, h, job);
            assert_eq!(j, again.jitter(1, h, job));
            assert!((1.0 - JITTER_SPAN..=1.0 + JITTER_SPAN).contains(&j), "{j}");
        }
        assert_ne!(
            exec.jitter(1, h, 0),
            exec.jitter(1, h, 1),
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
