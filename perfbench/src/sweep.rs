//! `paper-sweep`: the eight curves of Figs. 3 and 4 — the naive baseline
//! and SGPRS at `os ∈ {1.0, 1.5, 2.0}`, each at `np ∈ {2, 3}` — over the
//! figures' task counts. Each point is compiled with
//! `ScenarioSpec::compile_tasks` (the set-up) and then run through its
//! scheduler (the measured phase), exactly as `ScenarioSpec::run` does.
//!
//! The traced run re-runs every point with the device timeline on and
//! replays each SGPRS point's kernel stream through a fresh `GpuEngine`,
//! which times the gpu-sim layer apart from the scheduler above it.

use crate::measure::{self, metric, timed, timed_counted, Digest, HostSpeed, Metric};
use crate::{end_to_end, per_layer, unit_median, Outcome, Plan, UnitCost, MIN_CYCLES};
use sgprs_core::{
    CompiledTask, NaiveConfig, NaiveScheduler, RunMetrics, SgprsConfig, SgprsScheduler,
};
use sgprs_gpu_sim::{
    ContextConfig, DeviceEvent, GpuEngine, KernelDesc, StreamClass, TraceRecorder,
};
use sgprs_rt::SimTime;
use sgprs_workload::sweep::{SweepPoint, SweepSeries};
use sgprs_workload::{scenario1_variants, scenario2_variants, ScenarioSpec, SchedulerKind};

/// Context-pool sizes of the two figures (Fig. 3: 2, Fig. 4: 3).
pub const CONTEXTS: [usize; 2] = [2, 3];

/// The SGPRS over-subscription levels of each figure.
pub const OVERSUBSCRIPTION: [f64; 3] = [1.0, 1.5, 2.0];

/// Input size of the sweep.
#[derive(Debug, Clone)]
pub struct SweepSize {
    /// Simulated seconds per point (the first 0.5 s are warm-up).
    pub sim_secs: u64,
    /// Task counts of every curve.
    pub task_counts: Vec<usize>,
}

impl SweepSize {
    /// The benchmark size: the figures' task counts 1–30, 240 points.
    #[must_use]
    pub fn full() -> Self {
        SweepSize {
            sim_secs: 2,
            task_counts: (1..=30).collect(),
        }
    }

    /// Smoke-test size: one miss-free and one overloaded count per curve.
    #[must_use]
    pub fn tiny() -> Self {
        SweepSize {
            sim_secs: 1,
            task_counts: vec![1, 30],
        }
    }
}

/// The eight curves, in Fig. 3 then Fig. 4 order, seeded with `seed`.
#[must_use]
pub fn curves(size: &SweepSize, seed: u64) -> Vec<ScenarioSpec> {
    let mut curves = scenario1_variants(size.sim_secs);
    curves.extend(scenario2_variants(size.sim_secs));
    for c in &mut curves {
        c.seed = seed;
    }
    curves
}

/// One point's run in one cycle.
struct PointRun {
    sgprs: bool,
    cost: UnitCost,
    /// The run's metrics, without the raw response samples.
    metrics: RunMetrics,
    kernels: u64,
    replay: Option<Replay>,
    failures: Vec<String>,
}

/// One cycle: every point of every curve compiled and run once.
struct Cycle {
    points: Vec<PointRun>,
    digest: u64,
}

impl Cycle {
    fn take_failures(&mut self) -> Vec<Vec<String>> {
        self.points
            .iter_mut()
            .map(|p| std::mem::take(&mut p.failures))
            .collect()
    }

    fn costs(&self) -> Vec<UnitCost> {
        self.points.iter().map(|p| p.cost).collect()
    }
}

/// The gpu-sim replay of one traced SGPRS point.
struct Replay {
    kernels: u64,
    mismatches: u64,
    secs: f64,
}

/// Runs one point: scheduler construction plus `run`, as
/// `ScenarioSpec::run` does after compiling.
fn run_point(spec: &ScenarioSpec, tasks: Vec<CompiledTask>, tracing: bool) -> PointRun {
    let end = SimTime::ZERO + spec.sim;
    let (sgprs, metrics, run_s, allocs, kernels, replay) = match spec.scheduler {
        SchedulerKind::Naive => {
            let mut cfg = NaiveConfig::new(spec.contexts).with_seed(spec.seed);
            cfg.tracing = tracing;
            let ((metrics, sched), run_s, allocs) = timed_counted(|| {
                let mut sched = NaiveScheduler::new(cfg, tasks);
                (sched.run(end), sched)
            });
            let kernels = sched.engine().completed_count();
            (false, metrics, run_s, allocs, kernels, None)
        }
        SchedulerKind::Sgprs { .. } => {
            let mut cfg = SgprsConfig::new(spec.pool()).with_seed(spec.seed);
            cfg.tracing = tracing;
            let replay_tasks = tracing.then(|| tasks.clone());
            let ((metrics, sched), run_s, allocs) = timed_counted(|| {
                let mut sched = SgprsScheduler::new(cfg.clone(), tasks);
                (sched.run(end), sched)
            });
            let replay = match (replay_tasks, sched.engine().trace()) {
                (Some(tasks), Some(trace)) => Some(replay(&cfg, &tasks, trace, end)),
                _ => None,
            };
            let kernels = sched.engine().completed_count();
            (true, metrics, run_s, allocs, kernels, replay)
        }
    };
    PointRun {
        sgprs,
        cost: UnitCost {
            setup_s: 0.0,
            run_s,
            released: metrics.released,
            allocs,
        },
        metrics,
        kernels,
        replay,
        failures: Vec::new(),
    }
}

/// `(task, stage)` from an SGPRS kernel label `τ{task}#{release}/s{stage}`.
fn parse_label(label: &str) -> Option<(usize, usize)> {
    let rest = label.strip_prefix('τ')?;
    let (task, rest) = rest.split_once('#')?;
    let (_, stage) = rest.split_once("/s")?;
    Some((task.parse().ok()?, stage.parse().ok()?))
}

/// Re-drives a traced SGPRS kernel stream through a fresh engine built
/// from the same pool, contention model and seed: advance to each
/// kernel's submission instant, submit it on the traced stream's class
/// with its stage's work profile, then advance to the horizon. A kernel
/// whose handle or completion instant differs from the trace, or whose
/// label cannot be resolved, is a mismatch.
fn replay(
    cfg: &SgprsConfig,
    tasks: &[CompiledTask],
    trace: &TraceRecorder,
    end: SimTime,
) -> Replay {
    let spans = trace.spans();
    let high_streams = ContextConfig::new(1).high_streams;
    let mut mismatches = 0u64;
    // Kernel descriptors are built before the clock starts, so the
    // timed part is gpu-sim alone.
    let descs: Vec<Option<KernelDesc>> = spans
        .iter()
        .map(|s| {
            let (task, stage) = parse_label(&s.label)?;
            let work = tasks.get(task)?.stage_profiles.get(stage)?.clone();
            Some(KernelDesc::new(s.label.clone(), work))
        })
        .collect();
    let mut builder = GpuEngine::builder(cfg.pool.gpu.clone())
        .contention_model(cfg.contention)
        .seed(cfg.seed);
    for sm in cfg.pool.sm_allocations() {
        builder = builder.context(ContextConfig::new(sm));
    }
    let mut finished: Vec<Option<SimTime>> = vec![None; spans.len()];
    let note = |events: Vec<DeviceEvent>, finished: &mut [Option<SimTime>]| {
        for ev in events {
            if let Some(slot) = usize::try_from(ev.kernel.0)
                .ok()
                .and_then(|i| finished.get_mut(i))
            {
                *slot = Some(ev.finished_at);
            }
        }
    };
    let ((), secs) = timed(|| {
        let mut engine = builder.build();
        for (span, desc) in spans.iter().zip(descs) {
            note(engine.advance_to(span.begin), &mut finished);
            let Some(desc) = desc else {
                mismatches += 1;
                continue;
            };
            let class = if span.stream.index < high_streams {
                StreamClass::High
            } else {
                StreamClass::Low
            };
            match engine.submit(span.context, class, desc) {
                Ok(handle) if handle == span.kernel => {}
                _ => mismatches += 1,
            }
        }
        note(engine.advance_to(end), &mut finished);
    });
    mismatches += spans
        .iter()
        .zip(&finished)
        .filter(|(span, done)| span.end != **done)
        .count() as u64;
    Replay {
        kernels: spans.len() as u64,
        mismatches,
        secs,
    }
}

/// Accounting identities of one point's metrics.
fn check_point(label: &str, n: usize, m: &RunMetrics) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("{label} n={n}: {what}"));
        }
    };
    check(m.released > 0, "no releases");
    check(m.met + m.late == m.completed, "met + late != completed");
    check(
        m.completed + m.skipped + m.dropped <= m.released,
        "completed + skipped + dropped > released",
    );
    check(
        m.per_task.iter().map(|t| t.released).sum::<u64>() == m.released,
        "per-task releases do not sum to the total",
    );
    check(
        m.per_task.iter().map(|t| t.completed).sum::<u64>() == m.completed,
        "per-task completions do not sum to the total",
    );
    check(
        m.response_p50 <= m.response_p95 && m.response_p95 <= m.response_max,
        "response percentiles out of order",
    );
    failures
}

fn digest_point(d: &mut Digest, m: &RunMetrics) {
    for v in [m.released, m.completed, m.met, m.late, m.skipped, m.dropped] {
        d.u64(v);
    }
    d.f64(m.total_fps);
    d.f64(m.dmr);
    for v in [m.response_p50, m.response_p95, m.response_max] {
        d.u64(v.as_nanos());
    }
}

/// One cycle: each point is compiled (its set-up) and then run. Its times
/// are scaled to the reference host speed.
fn cycle(curves: &[ScenarioSpec], size: &SweepSize, tracing: bool, speed: &mut HostSpeed) -> Cycle {
    let mut digest = Digest::default();
    let mut points = Vec::with_capacity(curves.len() * size.task_counts.len());
    for spec in curves {
        for &n in &size.task_counts {
            let scale = speed.scale();
            let (tasks, setup_s) = timed(|| spec.compile_tasks(n));
            let mut point = run_point(spec, tasks, tracing);
            point.cost.setup_s = setup_s * scale;
            point.cost.run_s *= scale;
            if let Some(r) = point.replay.as_mut() {
                r.secs *= scale;
            }
            point.failures = check_point(&spec.label, n, &point.metrics);
            if let Some(r) = point.replay.as_ref().filter(|r| r.mismatches > 0) {
                point.failures.push(format!(
                    "{} n={n}: {} of {} replayed kernels differ from the trace",
                    spec.label, r.mismatches, r.kernels
                ));
            }
            digest_point(&mut digest, &point.metrics);
            point.metrics.response_samples_ns = Vec::new();
            points.push(point);
        }
    }
    for (spec, curve) in curves.iter().zip(points.chunks_mut(size.task_counts.len())) {
        let clean = curve.iter().any(|p| p.metrics.is_miss_free());
        let missing = curve.iter().any(|p| !p.metrics.is_miss_free());
        if !(clean && missing) {
            curve[0].failures.push(format!(
                "{}: the curve needs both miss-free points and points with misses",
                spec.label
            ));
        }
    }
    Cycle {
        points,
        digest: digest.value(),
    }
}

/// Runs the `paper-sweep` workload.
#[must_use]
pub fn run(plan: &Plan) -> Outcome {
    let size = if plan.tiny {
        SweepSize::tiny()
    } else {
        SweepSize::full()
    };
    let curves = curves(&size, plan.seed);
    let budget = if plan.trace {
        plan.budget / 2
    } else {
        plan.budget
    };
    let mut outcome = Outcome::default();
    let mut speed = HostSpeed::default();
    // Every untraced cycle's costs, but only the last one's results, so
    // peak memory does not grow with the number of cycles.
    let mut last = None;
    let untraced = measure::repeat(budget, MIN_CYCLES, || {
        let mut c = cycle(&curves, &size, false, &mut speed);
        outcome.record_cycle(c.take_failures(), c.digest);
        let costs = c.costs();
        last = Some(c);
        costs
    });
    if !plan.trace {
        end_to_end(&mut outcome, &untraced, 1);
        return outcome;
    }
    let last = last.expect("at least one untraced cycle ran");
    let mut traced = measure::repeat(budget, 1, || cycle(&curves, &size, true, &mut speed));
    for c in &mut traced {
        outcome.record_cycle(c.take_failures(), c.digest);
    }
    let found = layer_metrics(&curves, &size, &last, &untraced, &traced);
    outcome.set_metrics(&per_layer(), found);
    outcome
}

/// The per-layer metrics of the traced run, from the last untraced cycle,
/// every untraced cycle's costs, and the traced cycles.
fn layer_metrics(
    curves: &[ScenarioSpec],
    size: &SweepSize,
    last: &Cycle,
    untraced: &[Vec<UnitCost>],
    traced: &[Cycle],
) -> Vec<Metric> {
    let last = &last.points;
    let units = unit_median(untraced);
    let mut out = vec![
        metric(
            "core.offline.compile_s",
            units.iter().map(|u| u.setup_s).sum(),
            "s",
        ),
        metric("core.offline.calls", last.len() as f64, "count"),
    ];
    let mut sgprs_run_s = 0.0;
    for (sgprs, layer) in [(true, "core.sgprs"), (false, "core.naive")] {
        let points = || last.iter().zip(&units).filter(|(p, _)| p.sgprs == sgprs);
        let run_s: f64 = points().map(|(_, u)| u.run_s).sum();
        let released = points().map(|(p, _)| p.metrics.released).sum::<u64>() as f64;
        let completed = points().map(|(p, _)| p.metrics.completed).sum::<u64>() as f64;
        let allocs = points().map(|(p, _)| p.cost.allocs).sum::<u64>() as f64;
        out.extend([
            metric(format!("{layer}.run_s"), run_s, "s"),
            metric(
                format!("{layer}.ns_per_job"),
                measure::ratio(run_s * 1e9, released),
                "ns",
            ),
            metric(
                format!("{layer}.allocs_per_job"),
                measure::ratio(allocs, released),
                "count",
            ),
            metric(
                format!("{layer}.completed_ratio"),
                measure::ratio(completed, released),
                "ratio",
            ),
        ]);
        if sgprs {
            sgprs_run_s = run_s;
        }
    }
    for (spec, curve) in curves.iter().zip(last.chunks(size.task_counts.len())) {
        let series = SweepSeries {
            label: spec.label.clone(),
            points: size
                .task_counts
                .iter()
                .zip(curve)
                .map(|(&n, p)| SweepPoint::from_metrics(n, &p.metrics))
                .collect(),
        };
        let name = match spec.scheduler {
            SchedulerKind::Naive => format!("core.naive.pivot_tasks.np{}", spec.contexts),
            SchedulerKind::Sgprs { oversubscription } => {
                format!(
                    "core.sgprs.pivot_tasks.np{}.os{oversubscription:.1}",
                    spec.contexts
                )
            }
        };
        out.push(metric(name, series.pivot_point() as f64, "count"));
    }
    // Per SGPRS point, the median replay over the traced cycles.
    let replay_s: f64 = (0..last.len())
        .filter(|&i| last[i].sgprs)
        .map(|i| {
            let secs: Vec<f64> = traced
                .iter()
                .filter_map(|c| c.points[i].replay.as_ref().map(|r| r.secs))
                .collect();
            measure::median(&secs)
        })
        .sum();
    let replayed: u64 = traced[0]
        .points
        .iter()
        .filter_map(|p| p.replay.as_ref())
        .map(|r| r.kernels)
        .sum();
    let mismatches = traced
        .iter()
        .map(|c| {
            c.points
                .iter()
                .filter_map(|p| p.replay.as_ref())
                .map(|r| r.mismatches)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let kernels: u64 = last.iter().filter(|p| p.sgprs).map(|p| p.kernels).sum();
    let wall: f64 = units.iter().map(|u| u.run_s).sum();
    let traced_costs: Vec<Vec<UnitCost>> = traced.iter().map(Cycle::costs).collect();
    let traced_wall: f64 = unit_median(&traced_costs).iter().map(|u| u.run_s).sum();
    out.extend([
        metric("gpu-sim.kernels", kernels as f64, "count"),
        metric("gpu-sim.replay_s", replay_s, "s"),
        metric(
            "gpu-sim.ns_per_kernel",
            measure::ratio(replay_s * 1e9, replayed as f64),
            "ns",
        ),
        metric(
            "gpu-sim.share",
            measure::ratio(replay_s, sgprs_run_s),
            "ratio",
        ),
        metric("core.sgprs.self_s", sgprs_run_s - replay_s, "s"),
        metric("gpu-sim.replay_mismatches", mismatches as f64, "count"),
        metric("trace.overhead", measure::ratio(traced_wall, wall), "ratio"),
    ]);
    out
}
