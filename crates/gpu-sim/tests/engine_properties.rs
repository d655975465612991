//! Property-based tests of the device engine: conservation, determinism,
//! monotonicity, and agreement of its stepping calls under randomised
//! workloads.

use proptest::prelude::*;
use sgprs_gpu_sim::{
    ContentionModel, ContextConfig, ContextId, DeviceEvent, GpuEngine, GpuSpec, KernelDesc,
    OpClass, StreamClass, WorkProfile,
};
use sgprs_rt::{SimDuration, SimTime};

fn engine(contexts: &[u32], seed: u64) -> GpuEngine {
    let mut b =
        GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(1_000)).seed(seed);
    for &sm in contexts {
        b = b.context(ContextConfig::new(sm));
    }
    b.build()
}

fn op_of(tag: u8) -> OpClass {
    match tag % 8 {
        0 => OpClass::Convolution,
        1 => OpClass::MaxPool,
        2 => OpClass::AvgPool,
        3 => OpClass::BatchNorm,
        4 => OpClass::Activation,
        5 => OpClass::ElementwiseAdd,
        6 => OpClass::Linear,
        _ => OpClass::Softmax,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submitted kernel eventually completes, exactly once.
    #[test]
    fn all_submitted_kernels_complete(
        kernels in prop::collection::vec((0u8..8, 1_000.0f64..5e6), 1..40),
        seed in any::<u64>(),
    ) {
        let mut e = engine(&[34, 34], seed);
        let mut submitted = 0u64;
        let mut completed = Vec::new();
        for (i, &(tag, work)) in kernels.iter().enumerate() {
            let ctx = ContextId(i % 2);
            let class = if i % 4 < 2 { StreamClass::High } else { StreamClass::Low };
            let desc = KernelDesc::new(
                format!("k{i}"),
                WorkProfile::single(op_of(tag), work),
            );
            // Make room if every slot of the class is busy.
            loop {
                match e.submit(ctx, class, desc.clone()) {
                    Ok(h) => {
                        submitted += 1;
                        completed.push(h);
                        break;
                    }
                    Err(_) => {
                        let ev = e.run_next().expect("kernels in flight");
                        prop_assert!(completed.contains(&ev.kernel));
                    }
                }
            }
        }
        let events = e.drain();
        let mut total_done = events.len() as u64;
        // Events already consumed while making room:
        total_done += submitted - e.snapshot_resident() as u64 - events.len() as u64
            - (submitted - e.completed_count());
        prop_assert_eq!(e.completed_count(), submitted, "conservation");
        prop_assert!(e.next_event_time().is_none(), "device drained");
        let _ = total_done;
    }

    /// Identical seeds give identical schedules; the engine is a pure
    /// function of its inputs.
    #[test]
    fn engine_is_deterministic(
        works in prop::collection::vec(1_000.0f64..2e6, 1..16),
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut e = engine(&[68, 68], seed);
            for (i, &w) in works.iter().enumerate() {
                let ctx = ContextId(i % 2);
                let desc = KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, w));
                if e.submit(ctx, StreamClass::High, desc.clone()).is_err() {
                    e.run_next();
                    let _ = e.submit(ctx, StreamClass::High, desc);
                }
            }
            e.drain().into_iter().map(|ev| ev.finished_at).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Adding work never makes previously submitted kernels finish
    /// *earlier* (the engine is work-monotone).
    #[test]
    fn extra_load_never_speeds_anyone_up(work in 1e5f64..5e6, extra in 1e5f64..5e6) {
        let finish_of_first = |with_extra: bool| {
            let mut e = GpuEngine::builder(GpuSpec::rtx_2080_ti().with_launch_overhead_ns(0))
                .contention_model(ContentionModel::ideal())
                .context(ContextConfig::new(68))
                .build();
            let first = e
                .submit(
                    ContextId(0),
                    StreamClass::High,
                    KernelDesc::new("a", WorkProfile::single(OpClass::Convolution, work)),
                )
                .expect("idle");
            if with_extra {
                e.submit(
                    ContextId(0),
                    StreamClass::High,
                    KernelDesc::new("b", WorkProfile::single(OpClass::Convolution, extra)),
                )
                .expect("second high stream");
            }
            e.drain()
                .into_iter()
                .find(|ev| ev.kernel == first)
                .expect("first completes")
                .finished_at
        };
        prop_assert!(finish_of_first(true) >= finish_of_first(false));
    }

    /// Busy fractions always stay within [0, 1].
    #[test]
    fn busy_fractions_are_well_formed(
        works in prop::collection::vec(1_000.0f64..1e6, 1..12),
        horizon_ns in 1_000u64..1_000_000_000,
    ) {
        let mut e = engine(&[23, 23, 22], 7);
        for (i, &w) in works.iter().enumerate() {
            let ctx = ContextId(i % 3);
            let desc = KernelDesc::new("k", WorkProfile::single(OpClass::MaxPool, w));
            let _ = e.submit(ctx, StreamClass::Low, desc);
        }
        e.advance_to(SimTime::from_nanos(horizon_ns));
        for c in 0..3 {
            let f = e.busy_fraction(ContextId(c));
            prop_assert!((0.0..=1.0).contains(&f), "ctx {c}: {f}");
        }
    }
}

/// A profile of one to three operation classes led by `op_of(tag)`,
/// so a kernel's duration sums over several speedup curves.
fn mixed_profile(tag: u8, work: f64) -> WorkProfile {
    let mut p = WorkProfile::single(op_of(tag), work);
    if tag % 3 >= 1 {
        p.add(op_of(tag + 3), work / 2.0);
    }
    if tag % 3 == 2 {
        p.add(op_of(tag + 5), work / 3.0);
    }
    p
}

/// One step of a random engine workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit a kernel of `mixed_profile(tag, work)`.
    Submit {
        ctx: usize,
        high: bool,
        tag: u8,
        work: f64,
    },
    /// Advance the clock by `dt` ns.
    Advance { dt: u64 },
}

/// A raw draw for one [`Step`]: `kind` 0 advances, 1 and 2 submit.
type RawStep = ((u8, usize, bool), (u8, f64, u64));

fn raw_step() -> impl Strategy<Value = RawStep> {
    (
        (0u8..3, 0usize..2, any::<bool>()),
        (0u8..8, 1_000.0f64..3e6, 1u64..2_000_000),
    )
}

fn decode(((kind, ctx, high), (tag, work, dt)): RawStep) -> Step {
    if kind == 0 {
        Step::Advance { dt }
    } else {
        Step::Submit {
            ctx,
            high,
            tag,
            work,
        }
    }
}

/// How a driver collects the completions up to an instant.
#[derive(Debug, Clone, Copy)]
enum Collect {
    AdvanceInto,
    AdvanceTo,
    RunNext,
}

/// Replays `steps` on a fresh engine, collecting completions the given
/// way; returns every event plus the clock and completion count after
/// each step. Submits go to both contexts on both stream classes, so
/// contexts are shared, and every submit and retirement runs the
/// engine's debug checks: the cached occupancy and every memoised
/// duration equal a fresh recompute (tests build with debug assertions
/// on).
fn replay(steps: &[RawStep], seed: u64, how: Collect) -> (Vec<DeviceEvent>, Vec<(SimTime, u64)>) {
    let mut e = engine(&[34, 68], seed);
    let mut events = Vec::new();
    let mut states = Vec::new();
    let mut buf = Vec::new();
    for &raw in steps {
        match decode(raw) {
            Step::Submit {
                ctx,
                high,
                tag,
                work,
            } => {
                let class = if high {
                    StreamClass::High
                } else {
                    StreamClass::Low
                };
                let desc = KernelDesc::new("k", mixed_profile(tag, work));
                let _ = e.submit(ContextId(ctx), class, desc);
            }
            Step::Advance { dt } => {
                let t = e.now() + SimDuration::from_nanos(dt);
                match how {
                    Collect::AdvanceInto => {
                        buf.clear();
                        e.advance_into(t, &mut buf);
                        events.extend_from_slice(&buf);
                    }
                    Collect::AdvanceTo => events.extend(e.advance_to(t)),
                    Collect::RunNext => {
                        while e.next_event_time().is_some_and(|n| n <= t) {
                            events.push(e.run_next().expect("a completion is due"));
                        }
                        events.extend(e.advance_to(t));
                    }
                }
            }
        }
        states.push((e.now(), e.completed_count()));
    }
    events.extend(e.drain());
    (events, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `advance_into`, `advance_to` and repeated `run_next` are three
    /// views of one engine: identical events, clocks and counts.
    #[test]
    fn advance_into_advance_to_and_run_next_agree(
        steps in prop::collection::vec(raw_step(), 1..60),
        seed in any::<u64>(),
    ) {
        let into = replay(&steps, seed, Collect::AdvanceInto);
        prop_assert_eq!(&replay(&steps, seed, Collect::AdvanceTo), &into);
        prop_assert_eq!(&replay(&steps, seed, Collect::RunNext), &into);
    }
}

/// Helper extension used by the conservation test.
trait ResidentCount {
    fn snapshot_resident(&self) -> usize;
}

impl ResidentCount for GpuEngine {
    fn snapshot_resident(&self) -> usize {
        (0..self.context_count())
            .map(|c| self.snapshot(ContextId(c)).resident)
            .sum()
    }
}
