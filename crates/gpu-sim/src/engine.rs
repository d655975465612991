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
//! Schedulers may submit by [`KernelDesc`] or, without rebuilding one per
//! kernel, by a [`ProfileId`]: [`GpuEngine::intern`] enters a
//! [`WorkProfile`] into the engine's table once, and
//! [`GpuEngine::submit_profile`] takes the id. Both paths share one submit
//! body. Steady-state stepping allocates nothing: re-flow and retirement
//! reuse scratch buffers the engine owns, and [`GpuEngine::advance_into`]
//! fills the caller's buffer.
//!
//! Durations come from a memo per (profile, share). Interning matches a
//! profile with `==`, which is bit equality for the positive finite
//! segments [`WorkProfile::add`] admits, and a kernel keeps its profile's
//! id. A kernel's effective SM share `m_eff = sm_alloc · (w_class / Σw)`
//! takes only the values its context's busy-stream counts allow, so the
//! builder lists every distinct share the pool can give, deduplicated by
//! bits, and numbers them. The memo is a dense profile × share table of
//! `(duration, effective speedup)`, filled on first use by
//! [`WorkProfile::duration_ns_at`] and [`WorkProfile::effective_speedup`]:
//! a hit equals a fresh compute bit for bit. Its size is bounded by the
//! distinct profiles interned times the distinct shares of the pool (both
//! fixed by the inputs, not the run length): 16 bytes an entry, plus one
//! profile copy per row.
//!
//! The builder also tabulates every context's high and low share ids at
//! each of its busy states `(busy_high, busy_low)`, from the stream-weight
//! sum `busy_high · w_high + busy_low · w_low`: one engine-wide table,
//! each context keeping the offset of its rows.
//!
//! A re-flow works only where the resident set changed. A submit and a
//! retirement mark the context they touch and mark the re-flow due; they
//! do not run it. A re-flow has two passes:
//!
//! 1. give each marked context its high and low share ids, read from the
//!    table at its busy counts (O(contexts)); walk `running` once: a
//!    kernel whose context's share id for its class moved reads its
//!    duration and occupancy term from the memo (kernels elsewhere keep
//!    theirs), and every kernel's occupancy term is summed in `running`
//!    order, from `-0.0` as [`Iterator::sum`] does;
//! 2. derive the contention factor from the occupancy and walk `running`
//!    again: divide a kernel's rate anew only when the factor's bits or
//!    the kernel's rate denominator (`launch + extra + duration × jitter`)
//!    changed since the last pass 2, and keep the earliest completion
//!    instant.
//!
//! Pass 1 runs at a submit only when the re-flow is due, to give the
//! jitter draw the occupancy of the resident set as it stands. Both
//! passes run when the next completion is first asked for. So a burst of
//! submits at one instant, and the retirement before it, share one pass
//! 2. This is exact, i.e. every rate and instant equals that of a re-flow
//! after each change:
//!
//! * `rate = factor / denom` depends only on the final factor and
//!   denominator, and a kernel whose denominator moved stays marked
//!   stale until a pass 2 divides it anew.
//! * Time moves only after a settled re-flow (the next completion is read
//!   first), so progress between same-instant steps is zero and a rate
//!   left stale in between is never used.
//! * Advancing to `t`, a retirement *at* `t` returns at once, without
//!   re-flowing. An eager loop would re-flow and go on only if some
//!   kernel completed at that same instant. No kernel can then retire
//!   (every survivor has work left, and `dt = 0` makes no progress), so
//!   no later pass changes any state and the loop never ends. Every run
//!   that finishes therefore never takes that branch. Its one way to
//!   arise, a kernel with no work and no overhead, is rejected at submit
//!   ([`GpuSimError::ZeroTimeKernel`]).
//!
//! Each context also counts its busy high and low streams, so
//! [`GpuEngine::snapshot`] and the busy-time accounting never scan slots.
//!
//! The next completion instant is cached from the re-flow's last pass
//! until time moves (progress changes `remaining` and the reference
//! instant); the first query after that rescans `running`.

use crate::{ContentionModel, GpuSimError, KernelDesc, SpeedupModel, TraceRecorder, WorkProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sgprs_rt::SimTime;
use std::borrow::Cow;
use std::collections::VecDeque;

/// The suite's default seed: device jitter, paper-layer schedulers,
/// fleets and scenarios start from it unless told otherwise.
pub const DEFAULT_SEED: u64 = 0x5672_5053;

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
    /// Processor-sharing weight of a kernel on a high stream. A context's
    /// weight sum is `busy_high · high_weight + busy_low · low_weight`,
    /// which is exact for integral weights such as the defaults.
    pub high_weight: f64,
    /// Processor-sharing weight of a kernel on a low stream (see
    /// [`ContextConfig::high_weight`] for the weight sum).
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

    /// The stream-weight sum with `high` and `low` busy streams.
    fn weight_sum(&self, high: usize, low: usize) -> f64 {
        high as f64 * self.high_weight + low as f64 * self.low_weight
    }
}

/// A work profile interned in one engine's profile table (see
/// [`GpuEngine::intern`]); only that engine may be given it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileId(u32);

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

/// Share id of no share: a kernel not yet re-flowed, or a stream class
/// with no resident kernel in its context.
const NO_SHARE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct RunningKernel {
    handle: KernelHandle,
    stream: StreamId,
    class: StreamClass,
    /// The kernel's work profile in the engine's [`ShareMemo`].
    profile: ProfileId,
    /// The share id `eff_speedup` and `denom_ns` were derived at.
    share: u32,
    /// Fixed serial overhead (see [`KernelDesc::extra_ns`]).
    extra_ns: f64,
    /// Multiplicative execution-time jitter sampled at submit.
    jitter: f64,
    /// Fraction of the kernel still to execute, in [0, 1].
    remaining: f64,
    /// Current progress rate in fraction per nanosecond.
    rate: f64,
    submitted_at: SimTime,
    /// The effective speedup at `share`: the SM-equivalents the kernel
    /// keeps busy, its term of the engine's occupancy.
    eff_speedup: f64,
    /// `launch + extra_ns + duration × jitter`: the wall time the kernel
    /// would take at contention factor 1.
    denom_ns: f64,
    /// Set when `rate` no longer matches `denom_ns` (a new kernel, or a
    /// reshare that moved the denominator).
    rate_stale: bool,
}

impl RunningKernel {
    /// Moves the kernel to share `share`, whose memo entry is `at`, and
    /// marks the rate stale if the denominator moved.
    fn reshare(&mut self, share: u32, at: MemoEntry, launch_ns: f64) {
        self.share = share;
        self.eff_speedup = at.eff_speedup;
        let denom = launch_ns + self.extra_ns + at.duration_ns * self.jitter;
        if denom.to_bits() != self.denom_ns.to_bits() {
            self.denom_ns = denom;
            self.rate_stale = true;
        }
    }

    /// Absolute completion instant (ns) at the current rate, progress
    /// being measured from `reference_ns`.
    fn completion_ns(&self, reference_ns: f64) -> f64 {
        if self.rate <= 0.0 {
            return f64::INFINITY;
        }
        reference_ns + self.remaining / self.rate
    }
}

/// One memo entry: a profile's duration at a share and the effective
/// speedup it implies.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// The profile's [`WorkProfile::duration_ns_at`] at the share, before
    /// jitter and overheads; NaN until the entry is first used.
    duration_ns: f64,
    /// The profile's [`WorkProfile::effective_speedup`] at the share.
    eff_speedup: f64,
}

impl MemoEntry {
    const UNFILLED: MemoEntry = MemoEntry {
        duration_ns: f64::NAN,
        eff_speedup: f64::NAN,
    };
}

/// The speedup model and the duration memo over (interned profile,
/// share id) (module docs).
#[derive(Debug)]
struct ShareMemo {
    model: Cow<'static, SpeedupModel>,
    /// Every distinct profile interned so far, in first-intern order.
    profiles: Vec<WorkProfile>,
    /// Every distinct `m_eff` the pool can give, by bits; a share id
    /// indexes it.
    shares: Vec<f64>,
    /// `profiles.len() × shares.len()` entries, profile-major.
    entries: Vec<MemoEntry>,
    /// `(share_high, share_low)` of every context at every busy state,
    /// context after context: a context's rows start at its
    /// [`ContextState::share_rows`], and its row `busy_high ·
    /// (low_streams + 1) + busy_low` holds the ids at those busy counts.
    ids: Vec<(u32, u32)>,
}

impl ShareMemo {
    /// A memo over every share a kernel can hold in `contexts`, and the
    /// share-id rows of each context, which learns where its rows start.
    fn new(model: Cow<'static, SpeedupModel>, contexts: &mut [ContextState]) -> Self {
        let mut shares: Vec<f64> = Vec::new();
        // The id [`Self::share_id`] gives share `m`, listing it on first
        // sight.
        let mut id_of = |m: f64, busy: usize| {
            if busy == 0 {
                return NO_SHARE;
            }
            let listed = shares.iter().position(|s| s.to_bits() == m.to_bits());
            listed.unwrap_or_else(|| {
                shares.push(m);
                shares.len() - 1
            }) as u32
        };
        let busy_states =
            |c: &ContextState| (c.config.high_streams + 1) * (c.config.low_streams + 1);
        let mut ids = Vec::with_capacity(contexts.iter().map(busy_states).sum());
        for c in contexts {
            c.share_rows = ids.len();
            for high in 0..=c.config.high_streams {
                for low in 0..=c.config.low_streams {
                    let weight_sum = c.config.weight_sum(high, low);
                    ids.push((
                        id_of(c.m_eff(StreamClass::High, weight_sum), high),
                        id_of(c.m_eff(StreamClass::Low, weight_sum), low),
                    ));
                }
            }
        }
        ShareMemo {
            model,
            profiles: Vec::new(),
            shares,
            entries: Vec::new(),
            ids,
        }
    }

    /// The id of `work` in the profile table, interning it (with a row of
    /// unfilled entries) on first sight.
    fn intern(&mut self, work: &WorkProfile) -> ProfileId {
        let index = match self.profiles.iter().position(|p| p == work) {
            Some(index) => index,
            None => {
                // Exact growth: an engine interns a handful of profiles,
                // and doubling would leave up to half of both tables idle.
                self.profiles.reserve_exact(1);
                self.profiles.push(*work);
                self.entries.reserve_exact(self.shares.len());
                self.entries
                    .resize(self.entries.len() + self.shares.len(), MemoEntry::UNFILLED);
                self.profiles.len() - 1
            }
        };
        ProfileId(index as u32)
    }

    /// The profile interned as `id`.
    fn profile(&self, id: ProfileId) -> &WorkProfile {
        &self.profiles[id.0 as usize]
    }

    /// The id of share `m_eff`, or [`NO_SHARE`] when no kernel of the
    /// class is resident (`busy == 0`).
    fn share_id(&self, m_eff: f64, busy: usize) -> u32 {
        if busy == 0 {
            return NO_SHARE;
        }
        let id = self
            .shares
            .iter()
            .position(|s| s.to_bits() == m_eff.to_bits());
        id.expect("invariant: the builder lists every share the pool can give") as u32
    }

    /// Context `c`'s `(share_high, share_low)` at its busy counts, from the
    /// table.
    fn ids(&self, c: &ContextState) -> (u32, u32) {
        let row = c.busy_high * (c.config.low_streams + 1) + c.busy_low;
        let ids = self.ids[c.share_rows + row];
        debug_assert_eq!(ids, self.fresh_ids(c), "tabulated share ids went stale");
        ids
    }

    /// Context `c`'s `(share_high, share_low)` at its busy counts,
    /// computed without the table.
    fn fresh_ids(&self, c: &ContextState) -> (u32, u32) {
        let weight_sum = c.config.weight_sum(c.busy_high, c.busy_low);
        (
            self.share_id(c.m_eff(StreamClass::High, weight_sum), c.busy_high),
            self.share_id(c.m_eff(StreamClass::Low, weight_sum), c.busy_low),
        )
    }

    /// The entry of `profile` at `share`, filled on first use.
    fn entry(&mut self, profile: ProfileId, share: u32) -> MemoEntry {
        let i = profile.0 as usize * self.shares.len() + share as usize;
        let entry = self.entries[i];
        if entry.duration_ns.is_nan() {
            let fresh = self.fresh(profile, share);
            self.entries[i] = fresh;
            return fresh;
        }
        debug_assert_eq!(
            entry.duration_ns.to_bits(),
            self.fresh(profile, share).duration_ns.to_bits(),
            "memoised duration went stale"
        );
        entry
    }

    /// The entry of `profile` at `share`, computed without the memo.
    fn fresh(&self, profile: ProfileId, share: u32) -> MemoEntry {
        let work = self.profile(profile);
        let t = work.duration_ns_at(&self.model, self.shares[share as usize]);
        // `WorkProfile::effective_speedup` without computing `t` twice.
        let eff_speedup = if t <= 0.0 || !t.is_finite() {
            0.0
        } else {
            work.total_single_sm_ns() / t
        };
        MemoEntry {
            duration_ns: t,
            eff_speedup,
        }
    }
}

#[derive(Debug, Clone)]
struct ContextState {
    config: ContextConfig,
    /// Index of the context's first stream in the engine's stream table;
    /// its high streams come first.
    first_stream: usize,
    /// Occupied high-priority slots.
    busy_high: usize,
    /// Occupied low-priority slots.
    busy_low: usize,
    /// Set when the resident set changed since the last re-flow.
    dirty: bool,
    /// Share id of a kernel on a high / low stream, as of the last
    /// re-flow ([`NO_SHARE`] when none is resident).
    share_high: u32,
    share_low: u32,
    /// Where the context's rows start in the share-id table
    /// ([`ShareMemo::ids`]).
    share_rows: usize,
    /// Cumulative busy nanoseconds (≥1 resident kernel).
    busy_ns: f64,
}

impl ContextState {
    fn new(config: ContextConfig, first_stream: usize) -> Self {
        ContextState {
            config,
            first_stream,
            busy_high: 0,
            busy_low: 0,
            dirty: true,
            share_high: NO_SHARE,
            share_low: NO_SHARE,
            share_rows: 0,
            busy_ns: 0.0,
        }
    }

    fn busy_mut(&mut self, class: StreamClass) -> &mut usize {
        match class {
            StreamClass::High => &mut self.busy_high,
            StreamClass::Low => &mut self.busy_low,
        }
    }

    /// This context's stream slots in the engine-wide `table`: `true`
    /// where a kernel occupies the stream.
    fn slots<'t>(&self, table: &'t [bool]) -> &'t [bool] {
        &table[self.first_stream..self.first_stream + self.config.total_streams()]
    }

    /// Puts a kernel of `class` on stream `slot`.
    fn occupy(&mut self, table: &mut [bool], slot: usize, class: StreamClass) {
        table[self.first_stream + slot] = true;
        *self.busy_mut(class) += 1;
        self.dirty = true;
    }

    /// Frees stream `slot` of `class`.
    fn vacate(&mut self, table: &mut [bool], slot: usize, class: StreamClass) {
        table[self.first_stream + slot] = false;
        *self.busy_mut(class) -= 1;
        self.dirty = true;
    }

    /// The share id of a kernel on a stream of `class`, as of the last
    /// re-flow.
    fn share(&self, class: StreamClass) -> u32 {
        match class {
            StreamClass::High => self.share_high,
            StreamClass::Low => self.share_low,
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

    fn idle_slot(&self, table: &[bool], class: StreamClass) -> Option<usize> {
        let range = match class {
            StreamClass::High => 0..self.config.high_streams,
            StreamClass::Low => {
                self.config.high_streams..self.config.high_streams + self.config.low_streams
            }
        };
        let slots = self.slots(table);
        range.into_iter().find(|&i| !slots[i])
    }

    fn resident(&self) -> usize {
        self.busy_high + self.busy_low
    }
}

/// `x` rounded up to a whole number of nanoseconds, saturating at the
/// `u64` range (NaN gives 0): `x.ceil() as u64` without the libm call.
fn ceil_ns(x: f64) -> u64 {
    // Saturating: exact for every `x` in range, since an `x` of 2^53 or
    // more is whole and a smaller one truncates to a representable `t`.
    let t = x as u64;
    if t < u64::MAX && (t as f64) < x {
        t + 1
    } else {
        t
    }
}

/// The discrete-event GPU device simulator. See the module documentation for the algorithm details.
#[derive(Debug)]
pub struct GpuEngine {
    spec: crate::GpuSpec,
    memo: ShareMemo,
    contention: ContentionModel,
    contexts: Vec<ContextState>,
    /// Every context's stream slots, context after context (see
    /// [`ContextState::slots`]).
    streams: Vec<bool>,
    running: Vec<RunningKernel>,
    now: SimTime,
    last_reflow_ns: f64,
    next_handle: u64,
    rng: SmallRng,
    trace: Option<TraceRecorder>,
    completed_count: u64,
    /// Events already produced but not yet returned (simultaneous
    /// completions split by [`GpuEngine::run_next`]), oldest first.
    pending: VecDeque<DeviceEvent>,
    /// Set by a submit or retirement: the re-flow is due (module docs).
    reflow_due: bool,
    /// Total occupancy demanded by the resident kernels, in
    /// SM-equivalents, as of the last pass 1 (a kernel at speedup `s`
    /// keeps `s` SMs' worth of throughput busy — the rest of its
    /// allocation idles and is up for grabs, which is what makes
    /// over-subscription profitable; see [`ContentionModel`]).
    occupancy: f64,
    /// The contention factor of the last pass 2, which every clean
    /// kernel's `rate` was divided from.
    factor: f64,
    /// The next completion instant (ns, infinite when idle) as of the
    /// last pass 2 or scan; `None` once time moved (module docs).
    next_completion_ns: Option<f64>,
    /// Retirement scratch: kernels finishing at the current instant.
    retired: Vec<RunningKernel>,
}

/// Builder for [`GpuEngine`] (see `C-BUILDER`).
#[derive(Debug)]
pub struct GpuEngineBuilder {
    spec: crate::GpuSpec,
    speedup: Cow<'static, SpeedupModel>,
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
        self.speedup = Cow::Owned(model);
        self
    }

    /// Replaces the calibrated contention model.
    #[must_use]
    pub fn contention_model(mut self, model: ContentionModel) -> Self {
        self.contention = model;
        self
    }

    /// Seeds the deterministic jitter RNG (default [`DEFAULT_SEED`]).
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
        let mut first_stream = 0;
        let mut contexts: Vec<ContextState> = self
            .contexts
            .into_iter()
            .map(|config| {
                let c = ContextState::new(config, first_stream);
                first_stream += config.total_streams();
                c
            })
            .collect();
        GpuEngine {
            spec: self.spec,
            memo: ShareMemo::new(self.speedup, &mut contexts),
            contention: self.contention,
            contexts,
            streams: vec![false; first_stream],
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
            completed_count: 0,
            pending: VecDeque::new(),
            reflow_due: true,
            occupancy: 0.0,
            factor: f64::NAN,
            next_completion_ns: None,
            retired: Vec::new(),
        }
    }
}

impl GpuEngine {
    /// Starts building an engine for the given device.
    #[must_use]
    pub fn builder(spec: crate::GpuSpec) -> GpuEngineBuilder {
        GpuEngineBuilder {
            spec,
            speedup: Cow::Borrowed(SpeedupModel::rtx_2080_ti()),
            contention: ContentionModel::calibrated(),
            contexts: Vec::new(),
            seed: DEFAULT_SEED,
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
        &self.memo.model
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

    /// Enters `work` into the engine's profile table and returns its id:
    /// the same id for every profile equal to it (module docs). A
    /// scheduler that submits the same work over and over interns it once
    /// and submits by id ([`GpuEngine::submit_profile`]).
    pub fn intern(&mut self, work: &WorkProfile) -> ProfileId {
        self.memo.intern(work)
    }

    /// Submits a kernel to an idle stream of `class` in context `ctx`:
    /// [`GpuEngine::submit_profile`] with the descriptor's profile,
    /// interned, and its overhead and label.
    ///
    /// # Errors
    ///
    /// As [`GpuEngine::submit_profile`].
    pub fn submit(
        &mut self,
        ctx: ContextId,
        class: StreamClass,
        desc: KernelDesc,
    ) -> Result<KernelHandle, GpuSimError> {
        let profile = self.intern(&desc.work);
        self.submit_profile(ctx, class, profile, desc.extra_ns, &desc.label)
            .map(|(handle, _)| handle)
    }

    /// Submits a kernel of the interned `profile` to an idle stream of
    /// `class` in context `ctx`, with `extra_ns` of fixed serial overhead
    /// (see [`KernelDesc::extra_ns`]) and a trace `label`, read only when
    /// tracing is on. Returns the kernel's handle and the stream it took.
    ///
    /// A kernel that would take no time, with empty work and neither
    /// launch overhead nor `extra_ns`, is rejected rather than completed
    /// at its submit instant: its rate would be infinite, and the engine
    /// would report a completion due *now* forever.
    ///
    /// # Errors
    ///
    /// * [`GpuSimError::UnknownContext`] if `ctx` is out of range.
    /// * [`GpuSimError::NoIdleStream`] if every stream of that class is
    ///   busy — schedulers must check [`GpuEngine::snapshot`] first.
    /// * [`GpuSimError::ZeroTimeKernel`] if the kernel would take no time.
    ///
    /// # Panics
    ///
    /// May panic if `profile` was interned by another engine.
    pub fn submit_profile(
        &mut self,
        ctx: ContextId,
        class: StreamClass,
        profile: ProfileId,
        extra_ns: f64,
        label: &str,
    ) -> Result<(KernelHandle, StreamId), GpuSimError> {
        let state = self
            .contexts
            .get(ctx.0)
            .ok_or(GpuSimError::UnknownContext { context: ctx.0 })?;
        let slot = state
            .idle_slot(&self.streams, class)
            .ok_or(GpuSimError::NoIdleStream {
                context: ctx.0,
                class,
            })?;
        let overhead_ns = self.spec.launch_overhead_ns as f64 + extra_ns;
        if (overhead_ns.is_nan() || overhead_ns <= 0.0) && self.memo.profile(profile).is_empty() {
            return Err(GpuSimError::ZeroTimeKernel { context: ctx.0 });
        }

        // Jitter depends on the overcommit level at submit time: bring the
        // occupancy up to the resident set as it stands (module docs).
        if self.reflow_due {
            self.reshare();
        }
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

        let handle = KernelHandle(self.next_handle);
        self.next_handle += 1;
        self.contexts[ctx.0].occupy(&mut self.streams, slot, class);
        let stream = StreamId {
            context: ctx,
            index: slot,
        };
        if let Some(trace) = &mut self.trace {
            trace.begin(handle, label, ctx, stream, self.now);
        }
        // The next re-flow gives the kernel its share: its context is
        // marked, and no share id equals `NO_SHARE`.
        self.running.push(RunningKernel {
            handle,
            stream,
            class,
            profile,
            share: NO_SHARE,
            extra_ns,
            jitter,
            remaining: 1.0,
            rate: 0.0,
            submitted_at: self.now,
            eff_speedup: 0.0,
            denom_ns: f64::NAN,
            rate_stale: true,
        });
        self.reflow_due = true;
        Ok((handle, stream))
    }

    /// The instant of the next kernel completion, if any kernel is running.
    /// Takes `&mut self` to cache the instant until time moves.
    #[must_use]
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let ns = self.next_completion_ns();
        if ns.is_finite() {
            Some(SimTime::from_nanos(ceil_ns(ns)))
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
        (self.contexts[ctx.0].busy_ns / elapsed).clamp(0.0, 1.0)
    }

    /// The trace recorder, if tracing was enabled at build time.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    const EPSILON: f64 = 1e-9;

    /// Advances to `t` (no-op unless `t` is later than now), retiring
    /// kernels as they finish and appending their events to `out`.
    /// Simultaneous completions come out in handle order. A retirement at
    /// `t` returns at once and leaves the re-flow due (module docs).
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
            let next_t = SimTime::from_nanos(ceil_ns(next)).max(self.now);
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
                let context = k.stream.context;
                self.contexts[context.0].vacate(&mut self.streams, k.stream.index, k.class);
                self.completed_count += 1;
                if let Some(trace) = &mut self.trace {
                    trace.end(k.handle, self.now);
                }
                out.extend(Some(DeviceEvent {
                    kernel: k.handle,
                    context,
                    stream: k.stream,
                    submitted_at: k.submitted_at,
                    finished_at: self.now,
                }));
            }
            self.reflow_due = true;
            if self.now == t {
                return;
            }
        }
    }

    /// Context `ctx`'s stream-weight sum recomputed from scratch: its
    /// kernels counted per class in `running`, times the class weight.
    fn fresh_weight_sum(&self, ctx: ContextId) -> f64 {
        let (mut high, mut low) = (0, 0);
        for k in self.running.iter().filter(|k| k.stream.context == ctx) {
            match k.class {
                StreamClass::High => high += 1,
                StreamClass::Low => low += 1,
            }
        }
        self.contexts[ctx.0].config.weight_sum(high, low)
    }

    /// The effective SM share of `k`, recomputed from scratch.
    fn fresh_m_eff(&self, k: &RunningKernel) -> f64 {
        let ctx = k.stream.context;
        self.contexts[ctx.0].m_eff(k.class, self.fresh_weight_sum(ctx))
    }

    /// The resident set's occupancy recomputed from scratch, without the
    /// re-flow's caches: the cached `occupancy` must equal it bit for bit.
    fn fresh_occupancy(&self) -> f64 {
        self.running
            .iter()
            .map(|k| {
                let work = self.memo.profile(k.profile);
                work.effective_speedup(&self.memo.model, self.fresh_m_eff(k))
            })
            .sum()
    }

    /// The next completion instant (ns; infinite when nothing runs), after
    /// a due re-flow; from the cache unless time moved since the last
    /// re-flow or scan.
    fn next_completion_ns(&mut self) -> f64 {
        if self.reflow_due {
            self.reflow();
        }
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
            .map(|k| k.completion_ns(self.last_reflow_ns))
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
            for c in &mut self.contexts {
                if c.resident() > 0 {
                    c.busy_ns += dt;
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

    /// Pass 1 of the re-flow: gives the marked contexts their share ids,
    /// reshares the kernels whose share moved and sums the occupancy
    /// (module docs).
    fn reshare(&mut self) {
        let launch_ns = self.spec.launch_overhead_ns as f64;
        let Self {
            contexts,
            running,
            memo,
            ..
        } = self;
        for c in contexts.iter_mut().filter(|c| c.dirty) {
            (c.share_high, c.share_low) = memo.ids(c);
            c.dirty = false;
        }
        // A clean context's shares did not move, so only kernels in the
        // marked ones can miss their share. The sum starts at -0.0, as
        // `Iterator::sum` does.
        let mut occupancy = -0.0;
        for k in running.iter_mut() {
            let share = contexts[k.stream.context.0].share(k.class);
            if k.share != share {
                k.reshare(share, memo.entry(k.profile, share), launch_ns);
            }
            occupancy += k.eff_speedup;
        }
        self.occupancy = occupancy;
    }

    /// The due re-flow: pass 1, then pass 2, which re-derives the stale
    /// rates and caches the next completion (module docs).
    fn reflow(&mut self) {
        self.reshare();
        let factor = self
            .contention
            .rate_factor(self.occupancy, f64::from(self.spec.total_sms));
        let factor_moved = factor.to_bits() != self.factor.to_bits();
        self.factor = factor;
        let mut next = f64::INFINITY;
        for k in &mut self.running {
            if factor_moved || k.rate_stale {
                k.rate = if k.denom_ns > 0.0 {
                    factor / k.denom_ns
                } else {
                    f64::INFINITY
                };
                k.rate_stale = false;
            }
            next = next.min(k.completion_ns(self.last_reflow_ns));
        }
        self.next_completion_ns = Some(next);
        self.reflow_due = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, OpClass, WorkProfile};
    use sgprs_rt::SimDuration;
    use std::collections::HashMap;

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
            + desc.work.duration_ns_at(e.speedup_model(), sm);
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

    /// Settles `e`'s re-flow the way a scheduler does, by asking for the
    /// next completion.
    fn settle(e: &mut GpuEngine) {
        let _ = e.next_event_time();
        assert!(
            !e.reflow_due,
            "a next-completion query runs the due re-flow"
        );
    }

    #[test]
    fn cached_occupancy_matches_a_fresh_recompute_after_every_step() {
        let mut e = GpuEngine::builder(quiet_spec())
            .context(ContextConfig::new(68))
            .context(ContextConfig::new(34))
            .build();
        // Before the engine settles, a stale occupancy must be marked due;
        // once settled, it must be fresh.
        let check = |e: &mut GpuEngine| {
            let fresh = e.occupancy.to_bits() == e.fresh_occupancy().to_bits();
            assert!(fresh || e.reflow_due, "stale occupancy with no re-flow due");
            settle(e);
            assert_eq!(e.occupancy.to_bits(), e.fresh_occupancy().to_bits());
        };
        check(&mut e);
        let classes = [StreamClass::High, StreamClass::Low, StreamClass::High];
        for (i, class) in classes.into_iter().enumerate() {
            for ctx in 0..2 {
                let work = 1e5 * (1 + i + ctx) as f64;
                e.submit(ContextId(ctx), class, conv_kernel(work)).unwrap();
                check(&mut e);
            }
        }
        assert!(e.occupancy > 0.0);
        while e.run_next().is_some() {
            check(&mut e);
        }
        assert_eq!(e.occupancy, 0.0, "an idle device demands nothing");
    }

    /// Every incremental cache against a from-scratch recompute: the
    /// per-context busy counts (via `snapshot`), and, unless the re-flow
    /// is due, the cached occupancy, the cached next completion and every
    /// kernel's rate. A stale cache with no re-flow due fails.
    fn assert_bookkeeping_is_fresh(e: &GpuEngine, step: usize) {
        for (i, c) in e.contexts.iter().enumerate() {
            let slots = c.slots(&e.streams);
            let (high, low) = slots.split_at(c.config.high_streams);
            let idle = |s: &[bool]| s.iter().filter(|&&busy| !busy).count();
            let scanned = ContextSnapshot {
                sm_alloc: c.config.sm_alloc,
                resident: slots.iter().filter(|&&busy| busy).count(),
                idle_high: idle(high),
                idle_low: idle(low),
            };
            assert_eq!(e.snapshot(ContextId(i)), scanned, "step {step} ctx {i}");
        }
        if e.reflow_due {
            return;
        }
        assert_eq!(
            e.occupancy.to_bits(),
            e.fresh_occupancy().to_bits(),
            "step {step}: stale occupancy"
        );
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
            let work = e.memo.profile(k.profile);
            let denom = e.spec.launch_overhead_ns as f64
                + k.extra_ns
                + work.duration_ns_at(e.speedup_model(), e.fresh_m_eff(k)) * k.jitter;
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

    /// Drives `e` through `steps` random steps seeded by `seed`: a submit
    /// of `work(r)` where a stream of the drawn class is idle, a move of
    /// up to 10 µs, or a run to the next completion. `after` sees the
    /// engine, the step and the kernel the step submitted, if any.
    /// Returns the submits and completions made.
    fn drive(
        e: &mut GpuEngine,
        seed: u64,
        steps: usize,
        work: impl Fn(usize) -> WorkProfile,
        mut after: impl FnMut(&mut GpuEngine, usize, Option<(KernelHandle, WorkProfile)>),
    ) -> (usize, usize) {
        let mut lcg = seed;
        let (mut submits, mut completions) = (0, 0);
        for step in 0..steps {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (lcg >> 33) as usize;
            let ctx = ContextId(r % e.context_count());
            let class = if (r / 3).is_multiple_of(2) {
                StreamClass::High
            } else {
                StreamClass::Low
            };
            let mut submitted = None;
            match r / 6 % 5 {
                // Submit where a stream of that class is idle.
                0..=2 => {
                    let snap = e.snapshot(ctx);
                    let idle = match class {
                        StreamClass::High => snap.idle_high,
                        StreamClass::Low => snap.idle_low,
                    };
                    if idle > 0 {
                        let work = work(r);
                        let handle = e.submit(ctx, class, KernelDesc::new("k", work)).unwrap();
                        submitted = Some((handle, work));
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
            after(e, step, submitted);
        }
        (submits, completions)
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
        let work = |r: usize| WorkProfile::single(ops[r % 3], 2e5 * (1 + r / 30 % 9) as f64);
        let mut contended = 0;
        let (submits, completions) = drive(&mut e, 0x5eed, 2_000, work, |e, step, _| {
            assert_bookkeeping_is_fresh(e, step);
            // Settle, which also fills the next-completion cache, so a
            // mutation that forgets to drop it is caught at the next step.
            settle(e);
            assert_bookkeeping_is_fresh(e, step);
            contended += usize::from(e.factor < 1.0);
        });
        assert!(
            submits > 100 && completions > 50 && contended > 50,
            "too little exercised: {submits} submits, {completions} completions, \
             {contended} contended steps"
        );
    }

    /// The share memo against a from-scratch compute: the shares are
    /// distinct by bits, every filled entry holds its profile's duration
    /// and effective speedup at its share, and every running kernel has
    /// the profile it was submitted with. Unless the re-flow is due, also
    /// every context's share ids are those of its kernels' fresh `m_eff`,
    /// and every running kernel has the duration and occupancy term of
    /// its fresh `m_eff`.
    fn assert_memo_is_fresh(
        e: &GpuEngine,
        submitted: &HashMap<KernelHandle, WorkProfile>,
        step: usize,
    ) {
        let memo = &e.memo;
        for (i, c) in e.contexts.iter().enumerate().filter(|_| !e.reflow_due) {
            let ctx = ContextId(i);
            let resident = |class| {
                let on = |k: &&RunningKernel| k.stream.context == ctx && k.class == class;
                e.running.iter().filter(on).count()
            };
            let weight_sum = e.fresh_weight_sum(ctx);
            let fresh = [StreamClass::High, StreamClass::Low]
                .map(|class| memo.share_id(c.m_eff(class, weight_sum), resident(class)));
            assert_eq!(
                [c.share_high, c.share_low],
                fresh,
                "step {step}: context {i}'s share ids went stale"
            );
        }
        let n = memo.shares.len();
        for (i, share) in memo.shares.iter().enumerate() {
            assert!(
                memo.shares[..i]
                    .iter()
                    .all(|s| s.to_bits() != share.to_bits()),
                "share {share} listed twice"
            );
        }
        assert_eq!(memo.entries.len(), memo.profiles.len() * n, "step {step}");
        let bits = |work: &WorkProfile, m: f64| {
            (
                work.duration_ns_at(&memo.model, m).to_bits(),
                work.effective_speedup(&memo.model, m).to_bits(),
            )
        };
        for (i, entry) in memo.entries.iter().enumerate() {
            if !entry.duration_ns.is_nan() {
                assert_eq!(
                    (entry.duration_ns.to_bits(), entry.eff_speedup.to_bits()),
                    bits(&memo.profiles[i / n], memo.shares[i % n]),
                    "step {step}: memo entry {i} went stale"
                );
            }
        }
        for k in &e.running {
            let work = memo.profile(k.profile);
            assert_eq!(work, &submitted[&k.handle], "step {step}: {:?}", k.handle);
            if e.reflow_due {
                continue;
            }
            let entry = memo.entries[k.profile.0 as usize * n + k.share as usize];
            assert_eq!(
                (entry.duration_ns.to_bits(), k.eff_speedup.to_bits()),
                bits(work, e.fresh_m_eff(k)),
                "step {step}: kernel {:?} duration or occupancy term went stale",
                k.handle
            );
        }
    }

    #[test]
    fn share_memo_matches_a_fresh_compute_after_every_step() {
        // Four profiles submitted over and over, so most reshares hit the
        // memo, and now and then a new one, so the memo grows mid-run.
        let mut mixed = WorkProfile::single(OpClass::Convolution, 3e5);
        mixed.add(OpClass::Activation, 4e4);
        mixed.add(OpClass::BatchNorm, 6e4);
        let mut head = WorkProfile::single(OpClass::Linear, 5e4);
        head.add(OpClass::Softmax, 1e4);
        let fixed = [
            WorkProfile::single(OpClass::Convolution, 2e5),
            mixed,
            WorkProfile::single(OpClass::MaxPool, 1e5),
            head,
        ];
        let work = |r: usize| {
            if r.is_multiple_of(13) {
                WorkProfile::single(OpClass::AvgPool, 1e3 * (1 + r / 13 % 97) as f64)
            } else {
                fixed[r % 4]
            }
        };
        let pools = [
            // The 2× pool of the paper layer, on the calibrated model.
            vec![
                ContextConfig::new(46),
                ContextConfig::new(45),
                ContextConfig::new(45),
            ],
            // One high stream and three low ones, beside a default context.
            vec![
                ContextConfig::new(17).with_streams(1, 3),
                ContextConfig::new(51),
            ],
        ];
        for (seed, pool) in (0xfeed_u64..).zip(pools) {
            let mut b = GpuEngine::builder(GpuSpec::rtx_2080_ti());
            for config in pool {
                b = b.context(config);
            }
            let mut e = b.build();
            let mut submitted = HashMap::new();
            // The filled entries and each kernel's share before the step: a
            // kernel whose share moved read its entry, a hit if it was
            // filled already.
            let (mut filled, mut shares) = (Vec::new(), HashMap::new());
            let mut hits = 0;
            let (submits, completions) = drive(&mut e, seed, 1_500, work, |e, step, new| {
                submitted.extend(new);
                assert_memo_is_fresh(e, &submitted, step);
                assert_bookkeeping_is_fresh(e, step);
                settle(e);
                let n = e.memo.shares.len();
                for k in &e.running {
                    let entry = k.profile.0 as usize * n + k.share as usize;
                    if shares.get(&k.handle) != Some(&k.share) && filled.get(entry) == Some(&true) {
                        hits += 1;
                    }
                }
                assert_memo_is_fresh(e, &submitted, step);
                assert_bookkeeping_is_fresh(e, step);
                filled = e
                    .memo
                    .entries
                    .iter()
                    .map(|x| !x.duration_ns.is_nan())
                    .collect();
                shares = e.running.iter().map(|k| (k.handle, k.share)).collect();
            });
            let profiles = e.memo.profiles.len();
            assert!(
                submits > 100 && completions > 50 && hits > 100 && profiles > fixed.len(),
                "too little exercised: {submits} submits, {completions} completions, \
                 {hits} memo hits, {profiles} profiles"
            );
        }
    }

    #[test]
    fn ceil_ns_matches_libm_ceil() {
        let two = |p: i32| 2f64.powi(p);
        let cases = [
            0.0,
            -0.0,
            f64::NAN,
            1e-9,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2.0,
            1e6,
            123_456_789.0,
            two(52) - 0.5,
            two(52) + 0.5,
            two(53),
            two(63),
            two(64),
            f64::INFINITY,
        ];
        for x in cases {
            assert_eq!(ceil_ns(x), x.ceil() as u64, "x = {x:e}");
        }
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
        let keys = |e: &GpuEngine, ctx: usize| -> Vec<f64> {
            e.running
                .iter()
                .filter(|k| k.stream.context == ContextId(ctx))
                .map(|k| e.memo.shares[k.share as usize])
                .collect()
        };
        // The keys are stale until the engine settles, and marked so.
        assert!(e.reflow_due);
        settle(&mut e);
        let (ctx0, ctx1) = (keys(&e, 0), keys(&e, 1));
        e.submit(ContextId(1), StreamClass::High, conv_kernel(4e6))
            .unwrap();
        assert!(e.reflow_due);
        settle(&mut e);
        // The context-0 kernels kept their keys, so the re-flow skipped
        // their durations; the resident context-1 kernel's share halved.
        assert_eq!(keys(&e, 0), ctx0);
        assert_eq!(ctx1[0], 34.0);
        assert_eq!(keys(&e, 1)[0], 17.0);
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

    #[test]
    fn a_zero_time_kernel_is_rejected_and_the_engine_drains() {
        let mut e = GpuEngine::builder(quiet_spec())
            .context(ContextConfig::new(68))
            .build();
        let err = e
            .submit(
                ContextId(0),
                StreamClass::High,
                KernelDesc::new("z", WorkProfile::new()),
            )
            .unwrap_err();
        assert_eq!(err, GpuSimError::ZeroTimeKernel { context: 0 });
        let id = e.intern(&WorkProfile::new());
        let err = e
            .submit_profile(ContextId(0), StreamClass::Low, id, 0.0, "z")
            .unwrap_err();
        assert_eq!(err, GpuSimError::ZeroTimeKernel { context: 0 });
        assert_eq!(e.next_event_time(), None);
        assert!(e.drain().is_empty());
        // Overhead alone takes time: empty work with extra overhead, or
        // under a launch overhead, runs for exactly that long.
        e.submit_profile(ContextId(0), StreamClass::High, id, 1_000.0, "x")
            .unwrap();
        let done = e.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, SimTime::from_nanos(1_000));
        let mut launched = GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(700))
            .contention_model(ContentionModel::ideal())
            .context(ContextConfig::new(68))
            .build();
        launched
            .submit(
                ContextId(0),
                StreamClass::High,
                KernelDesc::new("l", WorkProfile::new()),
            )
            .unwrap();
        assert_eq!(launched.drain()[0].finished_at, SimTime::from_nanos(700));
    }

    /// How [`burst_run`] submits.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Submit {
        /// Through [`GpuEngine::submit`], interning on first submit.
        Desc,
        /// Through [`GpuEngine::submit_profile`], every profile interned
        /// up front.
        Id,
    }

    /// Drives a 2× pool of three contexts through `steps` seeded steps:
    /// a burst of 1–4 submits at the current instant, each where a stream
    /// of the drawn class is idle, then a run to the next completion or a
    /// move of up to 10 µs. `eager` asks for the next completion after
    /// every submit and every move, which runs each re-flow as soon as it
    /// is due. Returns every event and the bursts of two or more submits.
    fn burst_run(seed: u64, steps: usize, via: Submit, eager: bool) -> (Vec<DeviceEvent>, usize) {
        let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti())
            .seed(seed)
            .context(ContextConfig::new(46))
            .context(ContextConfig::new(45))
            .context(ContextConfig::new(45))
            .build();
        let mut mixed = WorkProfile::single(OpClass::Convolution, 3e5);
        mixed.add(OpClass::Activation, 4e4);
        let profiles = [
            WorkProfile::single(OpClass::Convolution, 2e5),
            mixed,
            WorkProfile::single(OpClass::MaxPool, 1e5),
            WorkProfile::single(OpClass::BatchNorm, 5e4),
        ];
        // By descriptor, the table fills in first-submit order instead.
        let ids: Vec<ProfileId> = match via {
            Submit::Id => profiles.iter().map(|p| e.intern(p)).collect(),
            Submit::Desc => Vec::new(),
        };
        let mut lcg = seed;
        let mut draw = || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) as usize
        };
        let (mut events, mut bursts) = (Vec::new(), 0);
        let mut streams = HashMap::new();
        for _ in 0..steps {
            let r = draw();
            let mut submits = 0;
            for _ in 0..=r % 4 {
                let r = draw();
                let ctx = ContextId(r % 3);
                let (class, idle) = match e.snapshot(ctx) {
                    s if (r / 3).is_multiple_of(2) => (StreamClass::High, s.idle_high),
                    s => (StreamClass::Low, s.idle_low),
                };
                if idle == 0 {
                    continue;
                }
                let p = r / 6 % profiles.len();
                let extra_ns = if (r / 24).is_multiple_of(3) { 1e4 } else { 0.0 };
                let handle = match via {
                    Submit::Desc => {
                        let desc = KernelDesc::new("k", profiles[p]).with_extra_ns(extra_ns);
                        e.submit(ctx, class, desc).unwrap()
                    }
                    Submit::Id => {
                        let (handle, stream) =
                            e.submit_profile(ctx, class, ids[p], extra_ns, "k").unwrap();
                        streams.insert(handle, stream);
                        handle
                    }
                };
                assert_eq!(handle, KernelHandle(e.next_handle - 1));
                submits += 1;
                if eager {
                    settle(&mut e);
                }
            }
            bursts += usize::from(submits >= 2);
            if (r / 4).is_multiple_of(3) {
                let to = SimTime::from_nanos(e.now().as_nanos() + 1 + (r / 12 % 9_973) as u64);
                e.advance_into(to, &mut events);
            } else {
                events.extend(e.run_next());
            }
            if eager {
                settle(&mut e);
            }
        }
        events.extend(e.drain());
        for ev in events.iter().filter(|_| via == Submit::Id) {
            assert_eq!(ev.stream, streams[&ev.kernel], "{:?}", ev.kernel);
        }
        (events, bursts)
    }

    /// `a` and `b` event for event, bit for bit.
    fn assert_same_events(a: &[DeviceEvent], b: &[DeviceEvent], what: &str) {
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            panic!(
                "{what}: event {i} differs: {:?} vs {:?}",
                a.get(i),
                b.get(i)
            );
        }
    }

    #[test]
    fn lazy_reflow_matches_an_eager_reflow_event_for_event() {
        for seed in [0x1a2e_u64, 0xbee5, 0x0dd5] {
            let (lazy, bursts) = burst_run(seed, 1_500, Submit::Id, false);
            let (eager, _) = burst_run(seed, 1_500, Submit::Id, true);
            assert_same_events(&lazy, &eager, &format!("seed {seed:#x}"));
            assert!(
                lazy.len() > 1_000 && bursts > 200,
                "too little exercised: {} events, {bursts} bursts",
                lazy.len()
            );
        }
    }

    #[test]
    fn submit_by_profile_id_matches_submit_by_desc() {
        for seed in [0x1d5_u64, 0xde5c] {
            let (by_id, bursts) = burst_run(seed, 1_500, Submit::Id, false);
            let (by_desc, _) = burst_run(seed, 1_500, Submit::Desc, false);
            assert_same_events(&by_id, &by_desc, &format!("seed {seed:#x}"));
            assert!(
                by_id.len() > 1_000 && bursts > 200,
                "too little exercised: {} events, {bursts} bursts",
                by_id.len()
            );
        }
    }
}
