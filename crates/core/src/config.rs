//! Scheduler configuration: context pools, admission, and ablation knobs.

use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::{ContentionModel, GpuSpec};

/// The context pool of §II: `np` CUDA contexts whose SM allocations sum to
/// `os × total_sms` (`os` is the over-subscription level of §V, written
/// `SGPRS os` in the figures).
///
/// # Example
///
/// ```
/// use sgprs_core::ContextPoolSpec;
///
/// // Scenario 2, 1.5x over-subscription: three contexts of 34 SMs each.
/// let pool = ContextPoolSpec::new(3, 1.5);
/// assert_eq!(pool.sm_allocations(), vec![34, 34, 34]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextPoolSpec {
    /// Number of contexts `np`.
    pub contexts: usize,
    /// Over-subscription factor `os` (1.0 = exact partition of the GPU).
    pub oversubscription: f64,
    /// The device being partitioned.
    pub gpu: GpuSpec,
}

impl ContextPoolSpec {
    /// A pool of `contexts` contexts at over-subscription `os` on the
    /// paper's RTX 2080 Ti.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or `os` is not a positive finite
    /// number.
    #[must_use]
    pub fn new(contexts: usize, oversubscription: f64) -> Self {
        assert!(contexts > 0, "a context pool needs at least one context");
        assert!(
            oversubscription.is_finite() && oversubscription > 0.0,
            "over-subscription must be positive, got {oversubscription}"
        );
        ContextPoolSpec {
            contexts,
            oversubscription,
            gpu: GpuSpec::rtx_2080_ti(),
        }
    }

    /// Replaces the device.
    #[must_use]
    pub fn with_gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Per-context SM allocations: `os × total_sms` distributed as evenly
    /// as possible, each context capped at the physical SM count.
    ///
    /// Earlier contexts receive the remainder, so allocations differ by at
    /// most one SM.
    #[must_use]
    pub fn sm_allocations(&self) -> Vec<u32> {
        let total = (self.oversubscription * f64::from(self.gpu.total_sms)).round() as u64;
        let n = self.contexts as u64;
        let base = total / n;
        let remainder = (total % n) as usize;
        (0..self.contexts)
            .map(|i| {
                let sm = base + u64::from(i < remainder);
                (sm.min(u64::from(self.gpu.total_sms))) as u32
            })
            .collect()
    }

    /// The smallest context allocation (used as the pessimistic WCET
    /// profiling reference).
    #[must_use]
    pub fn min_sm_allocation(&self) -> u32 {
        self.sm_allocations().into_iter().min().unwrap_or(0)
    }
}

/// Order used to serve each priority band's ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueOrder {
    /// Earliest deadline first — the paper's choice (§IV-B3).
    Edf,
    /// Arrival order — ablation baseline.
    Fifo,
}

/// What happens when a period expires while the task's previous job is
/// still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// A single-slot frame buffer, newest frame wins: while a job is in
    /// flight the latest frame waits in the buffer (replacing — and
    /// thereby dropping — any staler one); when the job completes, the
    /// buffered frame is grabbed immediately and its deadline starts at
    /// the grab. This models an asynchronous LibTorch inference client and
    /// keeps the device work-conserving under overload, which is what
    /// lets SGPRS *sustain* total FPS past the pivot point (§V).
    FrameBuffer,
    /// Skip the release (drop the frame) outright when the previous job is
    /// still in flight — a strictly self-throttling client. Under
    /// overload the release/completion phase-locking leaves the device
    /// partially idle, so total FPS sags below capacity.
    SkipIfBusy,
    /// Release anyway and let jobs queue up (unbounded backlog).
    QueueAll,
}

/// Configuration of the SGPRS online scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgprsConfig {
    /// The context pool.
    pub pool: ContextPoolSpec,
    /// Contention model for the over-subscribed pool.
    pub contention: ContentionModel,
    /// Queue discipline within each priority band (EDF in the paper).
    pub queue_order: QueueOrder,
    /// Enable the medium-priority promotion rule of §IV-B3.
    pub medium_promotion: bool,
    /// Allow high-priority stages to overflow onto idle low-priority
    /// streams when both high streams are busy (not in the paper; off by
    /// default).
    pub high_overflow_to_low: bool,
    /// Release policy when the previous job is unfinished.
    pub admission: Admission,
    /// Abort queued jobs whose absolute deadline already passed. Off by
    /// default: a marginally late frame is still worth delivering (it
    /// counts toward total FPS), and aborting mid-chain wastes the GPU
    /// time its earlier stages already consumed. Available for ablation.
    pub abort_hopeless: bool,
    /// Decline a frame at admission when the backlog estimate says its
    /// deadline cannot be met (the frame is dropped *before* wasting any
    /// GPU time on it). Together with `abort_hopeless` this keeps admitted
    /// jobs on time under overload, so total FPS is sustained while the
    /// miss rate grows only with the drop rate — the paper's post-pivot
    /// behaviour. The naive baseline has no such control.
    pub admission_control: bool,
    /// Divisor applied to a context's outstanding-work estimate when
    /// predicting finish times (accounts for intra-context concurrency).
    pub finish_estimate_parallelism: f64,
    /// Deterministic seed for the device's execution-time jitter.
    pub seed: u64,
    /// Measurement warm-up: jobs released before this offset are ignored
    /// by the metrics.
    pub warmup: sgprs_rt::SimDuration,
    /// Record a device timeline (Chrome-trace exportable) during the run.
    pub tracing: bool,
}

impl SgprsConfig {
    /// The paper-faithful configuration for a given pool.
    #[must_use]
    pub fn new(pool: ContextPoolSpec) -> Self {
        SgprsConfig {
            pool,
            contention: ContentionModel::calibrated(),
            queue_order: QueueOrder::Edf,
            medium_promotion: true,
            high_overflow_to_low: false,
            admission: Admission::FrameBuffer,
            abort_hopeless: false,
            admission_control: true,
            finish_estimate_parallelism: 1.5,
            seed: 0x5672_5053,
            warmup: sgprs_rt::SimDuration::from_millis(500),
            tracing: false,
        }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Configuration of the naive spatial-partitioning baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveConfig {
    /// Number of spatial partitions (the naive scheduler never
    /// over-subscribes: allocations always sum to the physical SM count).
    pub contexts: usize,
    /// The device.
    pub gpu: GpuSpec,
    /// Contention model (only relevant for jitter; the naive pool cannot
    /// overcommit).
    pub contention: ContentionModel,
    /// Base cost of reconfiguring a partition to another tenant, in
    /// nanoseconds — the cost SGPRS's zero-configuration switch avoids.
    pub partition_switch_ns: f64,
    /// Relative growth of the switch cost per additional tenant sharing
    /// the context (cold caches, weight re-upload).
    pub switch_growth_per_tenant: f64,
    /// Release policy.
    pub admission: Admission,
    /// Deterministic jitter seed.
    pub seed: u64,
    /// Measurement warm-up.
    pub warmup: sgprs_rt::SimDuration,
    /// Record a device timeline during the run.
    pub tracing: bool,
}

impl NaiveConfig {
    /// The baseline configuration with `contexts` equal partitions.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    #[must_use]
    pub fn new(contexts: usize) -> Self {
        assert!(contexts > 0, "need at least one partition");
        NaiveConfig {
            contexts,
            gpu: GpuSpec::rtx_2080_ti(),
            contention: ContentionModel::calibrated(),
            partition_switch_ns: 250_000.0,
            switch_growth_per_tenant: 0.04,
            admission: Admission::FrameBuffer,
            seed: 0x5672_5053,
            warmup: sgprs_rt::SimDuration::from_millis(500),
            tracing: false,
        }
    }

    /// Per-context SM allocations (an exact partition of the GPU).
    #[must_use]
    pub fn sm_allocations(&self) -> Vec<u32> {
        ContextPoolSpec {
            contexts: self.contexts,
            oversubscription: 1.0,
            gpu: self.gpu.clone(),
        }
        .sm_allocations()
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The switch cost when `tenants` distinct tasks share a context.
    #[must_use]
    pub fn switch_cost_ns(&self, tenants: usize) -> f64 {
        let extra = tenants.saturating_sub(1) as f64;
        self.partition_switch_ns * (1.0 + self.switch_growth_per_tenant * extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pool_allocations() {
        // Scenario 1: np=2.
        assert_eq!(ContextPoolSpec::new(2, 1.0).sm_allocations(), vec![34, 34]);
        assert_eq!(ContextPoolSpec::new(2, 1.5).sm_allocations(), vec![51, 51]);
        assert_eq!(ContextPoolSpec::new(2, 2.0).sm_allocations(), vec![68, 68]);
        // Scenario 2: np=3.
        assert_eq!(
            ContextPoolSpec::new(3, 1.0).sm_allocations(),
            vec![23, 23, 22]
        );
        assert_eq!(
            ContextPoolSpec::new(3, 1.5).sm_allocations(),
            vec![34, 34, 34]
        );
        assert_eq!(
            ContextPoolSpec::new(3, 2.0).sm_allocations(),
            vec![46, 45, 45]
        );
    }

    #[test]
    fn allocations_never_exceed_physical_sms() {
        let pool = ContextPoolSpec::new(1, 3.0);
        assert_eq!(pool.sm_allocations(), vec![68]);
    }

    #[test]
    fn min_allocation_is_the_smallest() {
        assert_eq!(ContextPoolSpec::new(3, 1.0).min_sm_allocation(), 22);
        assert_eq!(ContextPoolSpec::new(2, 1.5).min_sm_allocation(), 51);
    }

    #[test]
    #[should_panic(expected = "at least one context")]
    fn zero_contexts_panics() {
        let _ = ContextPoolSpec::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_oversubscription_panics() {
        let _ = ContextPoolSpec::new(2, -1.0);
    }

    #[test]
    fn naive_partitions_the_gpu_exactly() {
        let cfg = NaiveConfig::new(3);
        let total: u32 = cfg.sm_allocations().iter().sum();
        assert_eq!(total, 68);
    }

    #[test]
    fn switch_cost_grows_with_tenants() {
        let cfg = NaiveConfig::new(2);
        assert!(cfg.switch_cost_ns(1) < cfg.switch_cost_ns(4));
        assert_eq!(cfg.switch_cost_ns(0), cfg.switch_cost_ns(1));
    }

    #[test]
    fn default_sgprs_config_is_paper_faithful() {
        let cfg = SgprsConfig::new(ContextPoolSpec::new(2, 1.5));
        assert_eq!(cfg.queue_order, QueueOrder::Edf);
        assert!(cfg.medium_promotion);
        assert!(!cfg.high_overflow_to_low);
        assert_eq!(cfg.admission, Admission::FrameBuffer);
    }
}
