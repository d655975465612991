//! The discrete-event GPU engine.
//!
//! The engine is a *processor-sharing* simulator: every kernel resident on
//! the device progresses simultaneously at a rate determined by
//!
//! 1. its context's SM allocation (spatial partitioning),
//! 2. how many kernels currently share that context (stream concurrency,
//!    weighted by stream priority),
//! 3. the global contention factor when the context pool over-subscribes
//!    the physical SMs, and
//! 4. the kernel's own operation mix through the speedup curves.
//!
//! Whenever the resident set changes, rates are recomputed and completion
//! times re-derived — the classic event-driven fluid model. The engine is
//! passive: schedulers drive it by submitting kernels and asking it to
//! advance to the next completion or to a chosen instant (e.g. the next
//! job release).
//!
//! The re-flow also caches the resident set's total occupancy, which
//! [`GpuEngine::submit`] reads to size the new kernel's jitter. The cache
//! is exact because the resident set changes only in `submit` and in
//! retirement, and both re-flow before returning. Steady-state stepping
//! allocates nothing: re-flow and retirement reuse scratch buffers the
//! engine owns, and [`GpuEngine::advance_into`] fills the caller's buffer.
//!
//! The re-flow is memoised per kernel. A kernel's work, jitter, stream
//! class and the speedup model are fixed from submit to retirement, so its
//! duration at its effective SM share (`m_eff`) and the speedup that
//! duration implies are pure functions of `m_eff`. Each running kernel
//! keeps both, keyed by `m_eff`'s bits, together with its rate
//! denominator (`launch + extra + duration × jitter`). A hit therefore
//! equals a fresh compute bit for bit.
//!
//! A re-flow works only where the resident set changed. `submit` and
//! retirement mark the context they touch; the re-flow then
//!
//! 1. recomputes each marked context's stream-weight sum from scratch, in
//!    `running` order, and its high and low `m_eff` once;
//! 2. re-derives the memo of each kernel in a marked context whose
//!    `m_eff` bits moved (kernels elsewhere keep their share, since their
//!    context's weight sum did not change);
//! 3. sums occupancy over all of `running`, in order, and derives the
//!    contention factor from it;
//! 4. divides a kernel's rate anew only when the factor's bits or the
//!    kernel's denominator changed.
//!
//! Each context also counts its busy high and low streams, so
//! [`GpuEngine::snapshot`] and the busy-time accounting never scan slots.
//!
//! The next completion instant is cached between mutations: the first
//! query after a change scans `running`, later ones reuse the result. The
//! cache is dropped by every re-flow (rates moved) and whenever time moves
//! (progress changed `remaining` and the reference instant).

use crate::{ContentionModel, GpuSimError, KernelDesc, SpeedupModel, TraceRecorder, WorkProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sgprs_rt::SimTime;
use std::collections::VecDeque;

/// Identifier of a context in the engine's context pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContextId(pub usize);

impl core::fmt::Display for ContextId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cp{}", self.0)
    }
}

/// Identifier of a stream within a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId {
    /// Owning context.
    pub context: ContextId,
    /// Stream index within the context (0-based, high streams first).
    pub index: usize,
}

/// CUDA stream priority class. SGPRS provisions two streams of each class
/// per context (§IV-B3), so at most four stages run concurrently per
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StreamClass {
    /// Low-priority hardware stream.
    Low,
    /// High-priority hardware stream.
    High,
}

impl core::fmt::Display for StreamClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            StreamClass::High => "high",
            StreamClass::Low => "low",
        })
    }
}

/// Static configuration of one context (spatial partition).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContextConfig {
    /// SMs allocated to the context (the MPS-style partition size).
    pub sm_alloc: u32,
    /// Number of high-priority streams (paper: 2).
    pub high_streams: usize,
    /// Number of low-priority streams (paper: 2).
    pub low_streams: usize,
    /// Processor-sharing weight of a kernel on a high stream.
    pub high_weight: f64,
    /// Processor-sharing weight of a kernel on a low stream.
    pub low_weight: f64,
}

impl ContextConfig {
    /// A context with `sm_alloc` SMs and the paper's 2+2 stream layout.
    #[must_use]
    pub fn new(sm_alloc: u32) -> Self {
        ContextConfig {
            sm_alloc,
            high_streams: 2,
            low_streams: 2,
            high_weight: 2.0,
            low_weight: 1.0,
        }
    }

    /// Overrides the stream counts.
    #[must_use]
    pub fn with_streams(mut self, high: usize, low: usize) -> Self {
        self.high_streams = high;
        self.low_streams = low;
        self
    }

    /// Total stream slots (max concurrent kernels) in this context.
    #[must_use]
    pub fn total_streams(&self) -> usize {
        self.high_streams + self.low_streams
    }
}

/// Unique handle of a submitted kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KernelHandle(pub u64);

/// A kernel-completion event produced by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceEvent {
    /// The completed kernel.
    pub kernel: KernelHandle,
    /// Context it ran in.
    pub context: ContextId,
    /// Stream it occupied.
    pub stream: StreamId,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Completion instant.
    pub finished_at: SimTime,
}

/// Point-in-time view of a context, for scheduler heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextSnapshot {
    /// The context's SM allocation.
    pub sm_alloc: u32,
    /// Kernels currently resident (running) in the context.
    pub resident: usize,
    /// Idle high-priority streams.
    pub idle_high: usize,
    /// Idle low-priority streams.
    pub idle_low: usize,
}

#[derive(Debug, Clone)]
struct RunningKernel {
    handle: KernelHandle,
    context: ContextId,
    stream: StreamId,
    class: StreamClass,
    work: WorkProfile,
    /// Fixed serial overhead (see [`KernelDesc::extra_ns`]).
    extra_ns: f64,
    /// Multiplicative execution-time jitter sampled at submit.
    jitter: f64,
    /// Fraction of the kernel still to execute, in [0, 1].
    remaining: f64,
    /// Current progress rate in fraction per nanosecond.
    rate: f64,
    submitted_at: SimTime,
    /// Memo key: the bits of the effective SM share that `duration_ns`
    /// and `eff_speedup` were derived at (see the module docs).
    m_eff_bits: u64,
    /// `work.duration_ns_at(model, m_eff)`, before jitter and overheads.
    /// Work and model are fixed per kernel, so the key determines it.
    duration_ns: f64,
    /// The effective speedup `duration_ns` implies: the SM-equivalents
    /// the kernel keeps busy, its term of the engine's occupancy.
    eff_speedup: f64,
    /// `launch + extra_ns + duration_ns × jitter`: the wall time the
    /// kernel would take at contention factor 1.
    denom_ns: f64,
    /// Set when `rate` no longer matches `denom_ns` (a new kernel, or a
    /// reshare that moved the denominator).
    rate_stale: bool,
}

impl RunningKernel {
    /// Re-derives the memo at effective SM share `m_eff`, with
    /// [`WorkProfile::effective_speedup`]'s guard on the speedup, and
    /// marks the rate stale if the denominator moved.
    fn reshare(&mut self, model: &SpeedupModel, launch_ns: f64, m_eff: f64) {
        let t = self.work.duration_ns_at(model, m_eff);
        self.m_eff_bits = m_eff.to_bits();
        self.duration_ns = t;
        self.eff_speedup = if t <= 0.0 || !t.is_finite() {
            0.0
        } else {
            self.work.total_single_sm_ns() / t
        };
        let denom = launch_ns + self.extra_ns + t * self.jitter;
        if denom.to_bits() != self.denom_ns.to_bits() {
            self.denom_ns = denom;
            self.rate_stale = true;
        }
    }
}

#[derive(Debug, Clone)]
struct ContextState {
    config: ContextConfig,
    /// One slot per stream: the handle of the kernel occupying it.
    slots: Vec<Option<KernelHandle>>,
    /// Occupied high-priority slots.
    busy_high: usize,
    /// Occupied low-priority slots.
    busy_low: usize,
    /// Set when the resident set changed since the last re-flow.
    dirty: bool,
    /// The resident kernels' total stream weight, as of the last re-flow.
    weight_sum: f64,
    /// `m_eff` of a kernel on a high / low stream, as of the last re-flow.
    m_eff_high: f64,
    m_eff_low: f64,
}

impl ContextState {
    fn new(config: ContextConfig) -> Self {
        ContextState {
            slots: vec![None; config.total_streams()],
            config,
            busy_high: 0,
            busy_low: 0,
            dirty: true,
            weight_sum: 0.0,
            m_eff_high: 0.0,
            m_eff_low: 0.0,
        }
    }

    fn busy_mut(&mut self, class: StreamClass) -> &mut usize {
        match class {
            StreamClass::High => &mut self.busy_high,
            StreamClass::Low => &mut self.busy_low,
        }
    }

    /// Puts `handle` on stream `slot` of `class`.
    fn occupy(&mut self, slot: usize, class: StreamClass, handle: KernelHandle) {
        self.slots[slot] = Some(handle);
        *self.busy_mut(class) += 1;
        self.dirty = true;
    }

    /// Frees stream `slot` of `class`.
    fn vacate(&mut self, slot: usize, class: StreamClass) {
        self.slots[slot] = None;
        *self.busy_mut(class) -= 1;
        self.dirty = true;
    }

    /// The cached `m_eff` of a kernel on a stream of `class`.
    fn cached_m_eff(&self, class: StreamClass) -> f64 {
        match class {
            StreamClass::High => self.m_eff_high,
            StreamClass::Low => self.m_eff_low,
        }
    }

    /// Processor-sharing weight of a kernel on a stream of `class`.
    fn weight(&self, class: StreamClass) -> f64 {
        match class {
            StreamClass::High => self.config.high_weight,
            StreamClass::Low => self.config.low_weight,
        }
    }

    /// The effective SM share of a kernel on a stream of `class`: the
    /// allocation split among resident kernels by stream-priority weight,
    /// `weight_sum` being the context's total.
    fn m_eff(&self, class: StreamClass, weight_sum: f64) -> f64 {
        let share = if weight_sum > 0.0 {
            self.weight(class) / weight_sum
        } else {
            1.0
        };
        f64::from(self.config.sm_alloc) * share
    }

    fn idle_slot(&self, class: StreamClass) -> Option<usize> {
        let range = match class {
            StreamClass::High => 0..self.config.high_streams,
            StreamClass::Low => {
                self.config.high_streams..self.config.high_streams + self.config.low_streams
            }
        };
        range.into_iter().find(|&i| self.slots[i].is_none())
    }

    fn resident(&self) -> usize {
        self.busy_high + self.busy_low
    }
}

/// The discrete-event GPU device simulator. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct GpuEngine {
    spec: crate::GpuSpec,
    speedup: SpeedupModel,
    contention: ContentionModel,
    contexts: Vec<ContextState>,
    running: Vec<RunningKernel>,
    now: SimTime,
    last_reflow_ns: f64,
    next_handle: u64,
    rng: SmallRng,
    trace: Option<TraceRecorder>,
    /// Cumulative busy nanoseconds per context (≥1 resident kernel).
    busy_ns: Vec<f64>,
    completed_count: u64,
    /// Events already produced but not yet returned (simultaneous
    /// completions split by [`GpuEngine::run_next`]), oldest first.
    pending: VecDeque<DeviceEvent>,
    /// Total occupancy demanded by the resident kernels, in
    /// SM-equivalents, as of the last re-flow (a kernel at speedup `s`
    /// keeps `s` SMs' worth of throughput busy — the rest of its
    /// allocation idles and is up for grabs, which is what makes
    /// over-subscription profitable; see [`ContentionModel`]).
    occupancy: f64,
    /// The contention factor of the last re-flow, which every clean
    /// kernel's `rate` was divided from.
    factor: f64,
    /// The next completion instant (ns, infinite when idle), once a query
    /// computed it; `None` after any mutation (module docs).
    next_completion_ns: Option<f64>,
    /// Retirement scratch: kernels finishing at the current instant.
    retired: Vec<RunningKernel>,
}

/// Builder for [`GpuEngine`] (see `C-BUILDER`).
#[derive(Debug)]
pub struct GpuEngineBuilder {
    spec: crate::GpuSpec,
    speedup: SpeedupModel,
    contention: ContentionModel,
    contexts: Vec<ContextConfig>,
    seed: u64,
    trace: bool,
}

impl GpuEngineBuilder {
    /// Adds a context (spatial partition) to the pool.
    #[must_use]
    pub fn context(mut self, config: ContextConfig) -> Self {
        self.contexts.push(config);
        self
    }

    /// Adds `n` identical contexts.
    #[must_use]
    pub fn contexts(mut self, n: usize, config: ContextConfig) -> Self {
        for _ in 0..n {
            self.contexts.push(config);
        }
        self
    }

    /// Replaces the calibrated speedup model.
    #[must_use]
    pub fn speedup_model(mut self, model: SpeedupModel) -> Self {
        self.speedup = model;
        self
    }

    /// Replaces the calibrated contention model.
    #[must_use]
    pub fn contention_model(mut self, model: ContentionModel) -> Self {
        self.contention = model;
        self
    }

    /// Seeds the deterministic jitter RNG (default 0x5672_5053, "SGPRS").
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables timeline tracing.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(self) -> GpuEngine {
        let contexts: Vec<ContextState> =
            self.contexts.into_iter().map(ContextState::new).collect();
        let n_ctx = contexts.len();
        let mut engine = GpuEngine {
            spec: self.spec,
            speedup: self.speedup,
            contention: self.contention,
            contexts,
            running: Vec::new(),
            now: SimTime::ZERO,
            last_reflow_ns: 0.0,
            next_handle: 0,
            rng: SmallRng::seed_from_u64(self.seed),
            trace: if self.trace {
                Some(TraceRecorder::new())
            } else {
                None
            },
            busy_ns: vec![0.0; n_ctx],
            completed_count: 0,
            pending: VecDeque::new(),
            occupancy: 0.0,
            factor: f64::NAN,
            next_completion_ns: None,
            retired: Vec::new(),
        };
        engine.recompute_rates();
        engine
    }
}

impl GpuEngine {
    /// Starts building an engine for the given device.
    #[must_use]
    pub fn builder(spec: crate::GpuSpec) -> GpuEngineBuilder {
        GpuEngineBuilder {
            spec,
            speedup: SpeedupModel::rtx_2080_ti().clone(),
            contention: ContentionModel::calibrated(),
            contexts: Vec::new(),
            seed: 0x5672_5053,
            trace: false,
        }
    }

    /// The simulated device.
    #[must_use]
    pub fn spec(&self) -> &crate::GpuSpec {
        &self.spec
    }

    /// The speedup model in use.
    #[must_use]
    pub fn speedup_model(&self) -> &SpeedupModel {
        &self.speedup
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of contexts in the pool.
    #[must_use]
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Number of kernels completed so far.
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// A snapshot of one context's occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[must_use]
    pub fn snapshot(&self, ctx: ContextId) -> ContextSnapshot {
        let c = &self.contexts[ctx.0];
        ContextSnapshot {
            sm_alloc: c.config.sm_alloc,
            resident: c.resident(),
            idle_high: c.config.high_streams - c.busy_high,
            idle_low: c.config.low_streams - c.busy_low,
        }
    }

    /// The stream a running kernel occupies, or `None` once it finished.
    #[must_use]
    pub fn stream_of(&self, kernel: KernelHandle) -> Option<StreamId> {
        // Most lookups are for the kernel just submitted, at the back.
        self.running
            .iter()
            .rev()
            .find(|k| k.handle == kernel)
            .map(|k| k.stream)
    }

    /// Submits a kernel to an idle stream of `class` in context `ctx`.
    ///
    /// # Errors
    ///
    /// * [`GpuSimError::UnknownContext`] if `ctx` is out of range.
    /// * [`GpuSimError::NoIdleStream`] if every stream of that class is
    ///   busy — schedulers must check [`GpuEngine::snapshot`] first.
    pub fn submit(
        &mut self,
        ctx: ContextId,
        class: StreamClass,
        desc: KernelDesc,
    ) -> Result<KernelHandle, GpuSimError> {
        let state = self
            .contexts
            .get(ctx.0)
            .ok_or(GpuSimError::UnknownContext { context: ctx.0 })?;
        let slot = state.idle_slot(class).ok_or(GpuSimError::NoIdleStream {
            context: ctx.0,
            class,
        })?;

        // Progress everyone to `now` under the old rates before the
        // resident set changes.
        self.progress_to(self.now);

        let handle = KernelHandle(self.next_handle);
        self.next_handle += 1;

        // Jitter depends on the overcommit level at submit time.
        debug_assert_eq!(
            self.occupancy.to_bits(),
            self.fresh_occupancy().to_bits(),
            "cached occupancy went stale"
        );
        let half = self
            .contention
            .jitter_halfwidth(self.occupancy, f64::from(self.spec.total_sms));
        let jitter = if half > 0.0 {
            (1.0 + self.rng.random_range(-1.0..1.0) * half).max(0.5)
        } else {
            1.0
        };

        self.contexts[ctx.0].occupy(slot, class, handle);
        let stream = StreamId {
            context: ctx,
            index: slot,
        };
        if let Some(trace) = &mut self.trace {
            trace.begin(handle, &desc.label, ctx, stream, self.now);
        }
        let mut kernel = RunningKernel {
            handle,
            context: ctx,
            stream,
            class,
            work: desc.work,
            extra_ns: desc.extra_ns,
            jitter,
            remaining: 1.0,
            rate: 0.0,
            submitted_at: self.now,
            m_eff_bits: 0,
            duration_ns: 0.0,
            eff_speedup: 0.0,
            denom_ns: f64::NAN,
            rate_stale: true,
        };
        // A valid memo entry for a zero share; the re-flow below moves it
        // to the kernel's real share.
        kernel.reshare(&self.speedup, self.spec.launch_overhead_ns as f64, 0.0);
        self.running.push(kernel);
        self.recompute_rates();
        Ok(handle)
    }

    /// The instant of the next kernel completion, if any kernel is running.
    /// Takes `&mut self` to cache the instant until the next mutation.
    #[must_use]
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let ns = self.next_completion_ns();
        if ns.is_finite() {
            Some(SimTime::from_nanos(ns.min(u64::MAX as f64).ceil() as u64))
        } else {
            None
        }
    }

    /// Runs until the next completion and returns it, or `None` if the
    /// device is idle.
    pub fn run_next(&mut self) -> Option<DeviceEvent> {
        if self.pending.is_empty() {
            let t = self.next_event_time()?;
            let mut pending = std::mem::take(&mut self.pending);
            self.complete_until(t, &mut pending);
            self.pending = pending;
            debug_assert!(!self.pending.is_empty(), "a completion was due at {t}");
        }
        self.pending.pop_front()
    }

    /// Advances simulated time to `t`, returning every completion event in
    /// chronological order. `t` earlier than [`GpuEngine::now`] is a no-op
    /// that returns only pending events.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<DeviceEvent> {
        let mut events = Vec::new();
        self.advance_into(t, &mut events);
        events
    }

    /// [`GpuEngine::advance_to`] appending to a caller-owned buffer, so a
    /// driver that reuses one buffer steps without allocating.
    pub fn advance_into(&mut self, t: SimTime, events: &mut Vec<DeviceEvent>) {
        events.extend(self.pending.drain(..));
        self.complete_until(t, events);
    }

    /// Runs the device until it is completely idle, returning all events.
    pub fn drain(&mut self) -> Vec<DeviceEvent> {
        let mut events = Vec::new();
        while let Some(t) = self.next_event_time() {
            self.advance_into(t, &mut events);
        }
        events.extend(self.pending.drain(..));
        events
    }

    /// Fraction of time context `ctx` had at least one resident kernel,
    /// measured since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[must_use]
    pub fn busy_fraction(&self, ctx: ContextId) -> f64 {
        let elapsed = self.now.as_nanos() as f64;
        if elapsed <= 0.0 {
            return 0.0;
        }
        (self.busy_ns[ctx.0] / elapsed).clamp(0.0, 1.0)
    }

    /// The trace recorder, if tracing was enabled at build time.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    const EPSILON: f64 = 1e-9;

    /// Advances to `t` (no-op unless `t` is later than now), retiring
    /// kernels as they finish and appending their events to `out`.
    /// Simultaneous completions come out in handle order.
    fn complete_until<E: Extend<DeviceEvent>>(&mut self, t: SimTime, out: &mut E) {
        if t <= self.now {
            return;
        }
        let target_ns = t.as_nanos() as f64;
        loop {
            let next = self.next_completion_ns();
            if !(next.is_finite() && next <= target_ns) {
                self.progress_to(t);
                return;
            }
            let next_t = SimTime::from_nanos(next.ceil() as u64).max(self.now);
            self.progress_to(next_t);
            // Retire every kernel whose remaining work reached zero.
            let mut i = 0;
            while i < self.running.len() {
                if self.running[i].remaining <= Self::EPSILON {
                    self.retired.push(self.running.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // Handles are unique, so the unstable sort is deterministic.
            self.retired.sort_unstable_by_key(|k| k.handle);
            for k in self.retired.drain(..) {
                self.contexts[k.context.0].vacate(k.stream.index, k.class);
                self.completed_count += 1;
                if let Some(trace) = &mut self.trace {
                    trace.end(k.handle, self.now);
                }
                out.extend(Some(DeviceEvent {
                    kernel: k.handle,
                    context: k.context,
                    stream: k.stream,
                    submitted_at: k.submitted_at,
                    finished_at: self.now,
                }));
            }
            self.recompute_rates();
        }
    }

    /// Context `ctx`'s stream-weight sum recomputed from scratch, in
    /// `running` order: the cached `weight_sum` must equal it bit for bit.
    fn fresh_weight_sum(&self, ctx: ContextId) -> f64 {
        let c = &self.contexts[ctx.0];
        self.running
            .iter()
            .filter(|j| j.context == ctx)
            .fold(0.0, |sum, j| sum + c.weight(j.class))
    }

    /// The resident set's occupancy recomputed from scratch, without the
    /// re-flow's caches: the cached `occupancy` must equal it bit for bit.
    fn fresh_occupancy(&self) -> f64 {
        self.running
            .iter()
            .map(|k| {
                let ctx = &self.contexts[k.context.0];
                let m_eff = ctx.m_eff(k.class, self.fresh_weight_sum(k.context));
                k.work.effective_speedup(&self.speedup, m_eff)
            })
            .sum()
    }

    /// The next completion instant (ns; infinite when nothing runs), from
    /// the cache when no mutation dropped it since the last scan.
    fn next_completion_ns(&mut self) -> f64 {
        if let Some(ns) = self.next_completion_ns {
            debug_assert_eq!(
                ns.to_bits(),
                self.fresh_next_completion_ns().to_bits(),
                "cached next completion went stale"
            );
            return ns;
        }
        let ns = self.fresh_next_completion_ns();
        self.next_completion_ns = Some(ns);
        ns
    }

    /// The earliest completion instant over `running`, scanned afresh.
    fn fresh_next_completion_ns(&self) -> f64 {
        self.running
            .iter()
            .map(|k| self.completion_time_of(k))
            .fold(f64::INFINITY, f64::min)
    }

    /// Moves all running kernels' progress forward to instant `t` under the
    /// currently set rates and updates busy-time accounting.
    fn progress_to(&mut self, t: SimTime) {
        let t_ns = t.as_nanos() as f64;
        let dt = t_ns - self.last_reflow_ns;
        if dt > 0.0 {
            for k in &mut self.running {
                k.remaining = (k.remaining - k.rate * dt).max(0.0);
            }
            for (i, c) in self.contexts.iter().enumerate() {
                if c.resident() > 0 {
                    self.busy_ns[i] += dt;
                }
            }
        }
        if t_ns != self.last_reflow_ns {
            // Completion instants are relative to the reference instant.
            self.next_completion_ns = None;
        }
        self.last_reflow_ns = t_ns;
        if t > self.now {
            self.now = t;
        }
    }

    /// Re-derives the rates after a submit or retirement, working only
    /// where the resident set changed (module docs). Must be called after
    /// any submit/retire.
    fn recompute_rates(&mut self) {
        let total = f64::from(self.spec.total_sms);
        let launch_ns = self.spec.launch_overhead_ns as f64;
        let Self {
            contexts,
            running,
            speedup,
            ..
        } = self;
        for c in contexts.iter_mut().filter(|c| c.dirty) {
            c.weight_sum = 0.0;
        }
        for k in running.iter() {
            let c = &mut contexts[k.context.0];
            if c.dirty {
                c.weight_sum += c.weight(k.class);
            }
        }
        for c in contexts.iter_mut().filter(|c| c.dirty) {
            c.m_eff_high = c.m_eff(StreamClass::High, c.weight_sum);
            c.m_eff_low = c.m_eff(StreamClass::Low, c.weight_sum);
            c.dirty = false;
        }
        // A clean context's shares did not move, so only kernels in the
        // marked ones can miss their memo key.
        for k in running.iter_mut() {
            let m_eff = contexts[k.context.0].cached_m_eff(k.class);
            if k.m_eff_bits != m_eff.to_bits() {
                k.reshare(speedup, launch_ns, m_eff);
            } else {
                debug_assert_eq!(
                    k.duration_ns.to_bits(),
                    k.work.duration_ns_at(speedup, m_eff).to_bits(),
                    "memoised duration went stale"
                );
            }
        }
        let occupancy: f64 = running.iter().map(|k| k.eff_speedup).sum();
        let factor = self.contention.rate_factor(occupancy, total);
        let factor_moved = factor.to_bits() != self.factor.to_bits();
        self.occupancy = occupancy;
        self.factor = factor;
        for k in &mut self.running {
            if factor_moved || k.rate_stale {
                k.rate = if k.denom_ns > 0.0 {
                    factor / k.denom_ns
                } else {
                    f64::INFINITY
                };
                k.rate_stale = false;
            }
        }
        self.next_completion_ns = None;
    }

    /// Absolute completion instant (ns) of a running kernel at its current
    /// rate.
    fn completion_time_of(&self, k: &RunningKernel) -> f64 {
        if k.rate <= 0.0 {
            return f64::INFINITY;
        }
        self.last_reflow_ns + k.remaining / k.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, OpClass, WorkProfile};
    use sgprs_rt::SimDuration;

    fn quiet_spec() -> GpuSpec {
        GpuSpec::rtx_2080_ti().with_launch_overhead_ns(0)
    }

    fn conv_kernel(ns: f64) -> KernelDesc {
        KernelDesc::new("conv", WorkProfile::single(OpClass::Convolution, ns))
    }

    /// The time `desc` takes in context `ctx` of `e` when it is the only
    /// resident kernel device-wide.
    fn isolated(e: &GpuEngine, ctx: usize, desc: &KernelDesc) -> SimDuration {
        let sm = f64::from(e.contexts[ctx].config.sm_alloc);
        let ns = e.spec.launch_overhead_ns as f64
            + desc.extra_ns
            + desc.work.duration_ns_at(&e.speedup, sm);
        SimDuration::from_nanos(ns.round() as u64)
    }

    fn ideal_engine(contexts: &[u32]) -> GpuEngine {
        let mut b = GpuEngine::builder(quiet_spec()).contention_model(ContentionModel::ideal());
        for &sm in contexts {
            b = b.context(ContextConfig::new(sm));
        }
        b.build()
    }

    #[test]
    fn single_kernel_runs_for_its_isolated_duration() {
        let mut e = ideal_engine(&[68]);
        let desc = conv_kernel(1e6);
        let expected = isolated(&e, 0, &desc);
        e.submit(ContextId(0), StreamClass::High, desc).unwrap();
        let ev = e.run_next().unwrap();
        let got = ev.finished_at.duration_since(ev.submitted_at);
        let diff = got.as_nanos().abs_diff(expected.as_nanos());
        assert!(diff <= 2, "expected {expected}, got {got}");
    }

    #[test]
    fn more_sms_finish_faster() {
        let run = |sms: u32| {
            let mut e = ideal_engine(&[sms]);
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.run_next().unwrap().finished_at
        };
        assert!(run(68) < run(34));
        assert!(run(34) < run(17));
    }

    #[test]
    fn two_kernels_in_one_context_share_sms() {
        let mut e = ideal_engine(&[68]);
        // Two identical kernels on equal-weight streams should each see
        // half the SMs and finish together, later than one alone would.
        let mut solo = ideal_engine(&[68]);
        solo.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let solo_t = solo.run_next().unwrap().finished_at;

        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].finished_at > solo_t);
        assert_eq!(evs[0].finished_at, evs[1].finished_at);
    }

    #[test]
    fn high_priority_stream_gets_larger_share() {
        let mut e = ideal_engine(&[68]);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        e.submit(ContextId(0), StreamClass::Low, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        let high = evs.iter().find(|e| e.stream.index < 2).unwrap();
        let low = evs.iter().find(|e| e.stream.index >= 2).unwrap();
        assert!(
            high.finished_at < low.finished_at,
            "high stream must finish first"
        );
    }

    #[test]
    fn no_idle_stream_is_reported() {
        let mut e = ideal_engine(&[68]);
        for _ in 0..2 {
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
                .unwrap();
        }
        let err = e
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap_err();
        assert!(matches!(err, GpuSimError::NoIdleStream { .. }));
        // Low class still has slots.
        assert!(e
            .submit(ContextId(0), StreamClass::Low, conv_kernel(1e6))
            .is_ok());
    }

    #[test]
    fn unknown_context_is_an_error() {
        let mut e = ideal_engine(&[68]);
        let err = e
            .submit(ContextId(5), StreamClass::High, conv_kernel(1e6))
            .unwrap_err();
        assert!(matches!(err, GpuSimError::UnknownContext { context: 5 }));
    }

    #[test]
    fn oversubscription_is_free_while_occupancy_fits() {
        // Two 68-SM contexts on a 68-SM device, one conv kernel each.
        // Each kernel occupies only s(68) = 32 SM-equivalents, so the
        // device can serve both at full speed: over-subscription harvests
        // the idle cycles a hard spatial split would waste (§V).
        let mut over = ideal_engine(&[68, 68]);
        over.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        over.submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let over_done = over.drain().last().unwrap().finished_at;

        // Same work on two half-GPU contexts: no overcommit, but each
        // kernel is capped at s(34) < s(68).
        let mut split = ideal_engine(&[34, 34]);
        split
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        split
            .submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let split_done = split.drain().last().unwrap().finished_at;
        assert!(
            over_done < split_done,
            "over-subscription should win while occupancy fits: {over_done} vs {split_done}"
        );
    }

    #[test]
    fn occupancy_overflow_triggers_contention() {
        // Saturate two 68-SM contexts with four conv kernels each:
        // occupancy = 8·s(17) ≈ 106 SM-equivalents > 68, so everyone is
        // throttled. The same saturated workload under a model with no
        // efficiency loss must finish strictly earlier than under the
        // lossy calibrated model — the loss is the price of overcommit.
        let run = |model: ContentionModel| {
            let mut e = GpuEngine::builder(quiet_spec())
                .contention_model(model)
                .context(ContextConfig::new(68))
                .context(ContextConfig::new(68))
                .build();
            for ctx in 0..2 {
                for class in [
                    StreamClass::High,
                    StreamClass::High,
                    StreamClass::Low,
                    StreamClass::Low,
                ] {
                    e.submit(ContextId(ctx), class, conv_kernel(1e7)).unwrap();
                }
            }
            e.drain().last().unwrap().finished_at
        };
        let ideal = run(ContentionModel::ideal());
        let lossy = run(ContentionModel {
            efficiency_loss: 0.5,
            base_jitter: 0.0,
            contention_jitter: 0.0,
        });
        assert!(
            lossy > ideal,
            "efficiency loss must slow the saturated pool"
        );
    }

    #[test]
    fn oversubscription_wins_when_the_peer_context_is_idle() {
        // With 2× over-subscription, a context whose peer is idle enjoys
        // the whole GPU — this is where SGPRS's FPS gains come from.
        let mut over = ideal_engine(&[68, 68]);
        over.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let over_done = over.drain().last().unwrap().finished_at;

        let mut split = ideal_engine(&[34, 34]);
        split
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let split_done = split.drain().last().unwrap().finished_at;
        assert!(over_done < split_done);
    }

    #[test]
    fn advance_to_without_completions_just_moves_time() {
        let mut e = ideal_engine(&[68]);
        let evs = e.advance_to(SimTime::from_nanos(1_000));
        assert!(evs.is_empty());
        assert_eq!(e.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn advance_to_past_is_a_no_op() {
        let mut e = ideal_engine(&[68]);
        e.advance_to(SimTime::from_nanos(1_000));
        let evs = e.advance_to(SimTime::from_nanos(500));
        assert!(evs.is_empty());
        assert_eq!(e.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn rate_change_mid_flight_is_accounted() {
        // Kernel A runs alone for a while, then B joins; A must finish
        // later than isolated but earlier than if B had been there all
        // along.
        let mut e = ideal_engine(&[68]);
        let a = e
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let iso = isolated(&e, 0, &conv_kernel(1e7));
        let half = SimTime::from_nanos(iso.as_nanos() / 2);
        e.advance_to(half);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
            .unwrap();
        let evs = e.drain();
        let a_done = evs.iter().find(|ev| ev.kernel == a).unwrap().finished_at;
        assert!(a_done > SimTime::ZERO + iso);
        assert!(a_done < SimTime::ZERO + iso * 2);
    }

    #[test]
    fn busy_fraction_tracks_idle_time() {
        let mut e = ideal_engine(&[68]);
        e.advance_to(SimTime::from_nanos(1_000_000));
        assert_eq!(e.busy_fraction(ContextId(0)), 0.0);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        e.drain();
        assert!(e.busy_fraction(ContextId(0)) > 0.0);
        assert!(e.busy_fraction(ContextId(0)) < 1.0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut e = GpuEngine::builder(quiet_spec())
                .seed(seed)
                .context(ContextConfig::new(68))
                .context(ContextConfig::new(68))
                .build();
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.submit(ContextId(1), StreamClass::High, conv_kernel(1e7))
                .unwrap();
            e.drain().last().unwrap().finished_at
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn snapshot_reflects_occupancy() {
        let mut e = ideal_engine(&[68]);
        let s = e.snapshot(ContextId(0));
        assert_eq!(s.resident, 0);
        assert_eq!(s.idle_high, 2);
        assert_eq!(s.idle_low, 2);
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        let s = e.snapshot(ContextId(0));
        assert_eq!(s.resident, 1);
        assert_eq!(s.idle_high, 1);
        assert_eq!(s.idle_low, 2);
    }

    #[test]
    fn extra_ns_lengthens_the_kernel() {
        let mut plain = ideal_engine(&[68]);
        plain
            .submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        let plain_done = plain.run_next().unwrap().finished_at;

        let mut taxed = ideal_engine(&[68]);
        taxed
            .submit(
                ContextId(0),
                StreamClass::High,
                conv_kernel(1e6).with_extra_ns(500_000.0),
            )
            .unwrap();
        let taxed_done = taxed.run_next().unwrap().finished_at;
        let diff = taxed_done.duration_since(plain_done);
        let err = diff.as_nanos().abs_diff(500_000);
        assert!(err <= 2, "extra 0.5ms expected, got {diff}");
    }

    #[test]
    fn cached_occupancy_matches_a_fresh_recompute_after_every_step() {
        let mut e = GpuEngine::builder(quiet_spec())
            .context(ContextConfig::new(68))
            .context(ContextConfig::new(34))
            .build();
        let check = |e: &GpuEngine| {
            assert_eq!(e.occupancy.to_bits(), e.fresh_occupancy().to_bits());
        };
        check(&e);
        let classes = [StreamClass::High, StreamClass::Low, StreamClass::High];
        for (i, class) in classes.into_iter().enumerate() {
            for ctx in 0..2 {
                let work = 1e5 * (1 + i + ctx) as f64;
                e.submit(ContextId(ctx), class, conv_kernel(work)).unwrap();
                check(&e);
            }
        }
        assert!(e.occupancy > 0.0);
        while e.run_next().is_some() {
            check(&e);
        }
        assert_eq!(e.occupancy, 0.0, "an idle device demands nothing");
    }

    /// Every incremental cache against a from-scratch recompute: the
    /// per-context busy counts (via `snapshot`), the cached next completion
    /// and every kernel's rate.
    fn assert_bookkeeping_is_fresh(e: &GpuEngine, step: usize) {
        for (i, c) in e.contexts.iter().enumerate() {
            let (high, low) = c.slots.split_at(c.config.high_streams);
            let idle = |s: &[Option<KernelHandle>]| s.iter().filter(|s| s.is_none()).count();
            let scanned = ContextSnapshot {
                sm_alloc: c.config.sm_alloc,
                resident: c.slots.iter().filter(|s| s.is_some()).count(),
                idle_high: idle(high),
                idle_low: idle(low),
            };
            assert_eq!(e.snapshot(ContextId(i)), scanned, "step {step} ctx {i}");
        }
        if let Some(ns) = e.next_completion_ns {
            assert_eq!(
                ns.to_bits(),
                e.fresh_next_completion_ns().to_bits(),
                "step {step}: stale next completion"
            );
        }
        let factor = e
            .contention
            .rate_factor(e.fresh_occupancy(), f64::from(e.spec.total_sms));
        for k in &e.running {
            let m_eff = e.contexts[k.context.0].m_eff(k.class, e.fresh_weight_sum(k.context));
            let denom = e.spec.launch_overhead_ns as f64
                + k.extra_ns
                + k.work.duration_ns_at(&e.speedup, m_eff) * k.jitter;
            let rate = if denom > 0.0 {
                factor / denom
            } else {
                f64::INFINITY
            };
            assert_eq!(
                k.rate.to_bits(),
                rate.to_bits(),
                "step {step}: kernel {:?} rate went stale",
                k.handle
            );
        }
    }

    #[test]
    fn incremental_bookkeeping_matches_a_fresh_recompute_after_every_step() {
        // A 2× pool of three unequal contexts on the calibrated contention
        // model: the factor and the jitter both move as kernels come and go.
        let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti())
            .context(ContextConfig::new(46))
            .context(ContextConfig::new(45))
            .context(ContextConfig::new(45))
            .build();
        let ops = [OpClass::Convolution, OpClass::MaxPool, OpClass::BatchNorm];
        let mut lcg = 0x5eed_u64;
        let (mut submits, mut completions, mut contended) = (0, 0, 0);
        for step in 0..2_000 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (lcg >> 33) as usize;
            let ctx = ContextId(r % 3);
            let class = if (r / 3).is_multiple_of(2) {
                StreamClass::High
            } else {
                StreamClass::Low
            };
            match r / 6 % 5 {
                // Submit where a stream of that class is idle.
                0..=2 => {
                    let snap = e.snapshot(ctx);
                    let idle = match class {
                        StreamClass::High => snap.idle_high,
                        StreamClass::Low => snap.idle_low,
                    };
                    if idle > 0 {
                        let work = WorkProfile::single(ops[r % 3], 2e5 * (1 + r / 30 % 9) as f64);
                        e.submit(ctx, class, KernelDesc::new("k", work)).unwrap();
                        submits += 1;
                    }
                }
                // Move time by up to 10 µs: usually no completion is due,
                // yet progress re-rounds the completion instants, so a
                // cache kept across the move is caught now and then.
                3 => {
                    let dt = 1 + (r / 30 % 9_973) as u64;
                    let to = SimTime::from_nanos(e.now().as_nanos() + dt);
                    completions += e.advance_to(to).len();
                }
                _ => completions += usize::from(e.run_next().is_some()),
            }
            assert_bookkeeping_is_fresh(&e, step);
            // Fill the next-completion cache, so a mutation that forgets
            // to drop it is caught at the next step.
            let _ = e.next_event_time();
            assert_bookkeeping_is_fresh(&e, step);
            contended += usize::from(e.factor < 1.0);
        }
        assert!(
            submits > 100 && completions > 50 && contended > 50,
            "too little exercised: {submits} submits, {completions} completions, \
             {contended} contended steps"
        );
    }

    #[test]
    fn a_submit_reshares_only_its_own_context() {
        let mut e = GpuEngine::builder(quiet_spec())
            .context(ContextConfig::new(68))
            .context(ContextConfig::new(34))
            .build();
        e.submit(ContextId(0), StreamClass::High, conv_kernel(1e6))
            .unwrap();
        e.submit(ContextId(0), StreamClass::Low, conv_kernel(2e6))
            .unwrap();
        e.submit(ContextId(1), StreamClass::High, conv_kernel(3e6))
            .unwrap();
        let keys = |e: &GpuEngine, ctx: usize| -> Vec<u64> {
            e.running
                .iter()
                .filter(|k| k.context == ContextId(ctx))
                .map(|k| k.m_eff_bits)
                .collect()
        };
        let (ctx0, ctx1) = (keys(&e, 0), keys(&e, 1));
        e.submit(ContextId(1), StreamClass::High, conv_kernel(4e6))
            .unwrap();
        // The context-0 kernels kept their keys, so the re-flow skipped
        // their durations; the resident context-1 kernel's share halved.
        assert_eq!(keys(&e, 0), ctx0);
        assert_eq!(f64::from_bits(ctx1[0]), 34.0);
        assert_eq!(f64::from_bits(keys(&e, 1)[0]), 17.0);
    }

    #[test]
    fn completed_count_accumulates() {
        let mut e = ideal_engine(&[68]);
        for _ in 0..3 {
            e.submit(ContextId(0), StreamClass::High, conv_kernel(1e5))
                .unwrap();
            e.run_next().unwrap();
        }
        assert_eq!(e.completed_count(), 3);
    }
}
