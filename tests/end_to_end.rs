//! Cross-crate integration tests: the offline → online → metrics pipeline
//! holds its internal invariants end to end.

use sgprs_suite::core::{
    offline, Admission, ContextPoolSpec, NaiveConfig, NaiveScheduler, SgprsConfig, SgprsScheduler,
};
use sgprs_suite::dnn::{models, partition, CostModel};
use sgprs_suite::gpu_sim::SpeedupModel;
use sgprs_suite::rt::{SimDuration, SimTime};

fn thirty_fps() -> SimDuration {
    SimDuration::from_micros(33_333)
}

fn compiled(pool: &ContextPoolSpec, stages: usize) -> sgprs_suite::core::CompiledTask {
    offline::compile_network_task(
        "t",
        &models::resnet18(1, 224),
        &CostModel::calibrated(),
        stages,
        thirty_fps(),
        pool,
    )
    .expect("valid stage count")
}

#[test]
fn offline_phase_preserves_network_work() {
    let pool = ContextPoolSpec::new(2, 1.0);
    let task = compiled(&pool, 6);
    let stage_sum: f64 = task
        .stage_profiles
        .iter()
        .map(|p| p.total_single_sm_ns())
        .sum();
    let whole = task.whole_profile.total_single_sm_ns();
    assert!(
        (stage_sum - whole).abs() / whole < 1e-9,
        "stages must partition the network exactly"
    );
}

#[test]
fn virtual_deadlines_partition_the_period() {
    let pool = ContextPoolSpec::new(3, 1.5);
    for stages in [2, 4, 6, 9] {
        let task = compiled(&pool, stages);
        let sum = task
            .spec
            .stages
            .iter()
            .fold(SimDuration::ZERO, |a, s| a + s.virtual_deadline);
        assert_eq!(sum, task.spec.deadline, "stages={stages}");
    }
}

#[test]
fn metrics_counters_are_consistent() {
    let pool = ContextPoolSpec::new(2, 1.5);
    let tasks = vec![compiled(&pool, 6); 20];
    let mut s = SgprsScheduler::new(SgprsConfig::new(pool), tasks);
    let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
    assert_eq!(m.completed, m.met + m.late, "completed = met + late");
    assert!(
        m.completed + m.skipped + m.dropped <= m.released + 40,
        "conservations up to in-flight jobs: {m:?}"
    );
    assert!(m.dmr >= 0.0 && m.dmr <= 1.0);
    let fps_check = m.completed as f64 / m.window.as_secs_f64();
    assert!((fps_check - m.total_fps).abs() < 1e-6);
}

#[test]
fn per_task_metrics_sum_to_totals() {
    let pool = ContextPoolSpec::new(3, 1.5);
    let tasks = vec![compiled(&pool, 6); 12];
    let mut s = SgprsScheduler::new(SgprsConfig::new(pool), tasks);
    let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
    let released: u64 = m.per_task.iter().map(|t| t.released).sum();
    let completed: u64 = m.per_task.iter().map(|t| t.completed).sum();
    assert_eq!(released, m.released);
    assert_eq!(completed, m.completed);
}

#[test]
fn trace_spans_match_completed_kernels() {
    let pool = ContextPoolSpec::new(2, 1.0);
    let tasks = vec![compiled(&pool, 6); 3];
    let mut cfg = SgprsConfig::new(pool);
    cfg.tracing = true;
    let mut s = SgprsScheduler::new(cfg, tasks);
    let _ = s.run(SimTime::ZERO + SimDuration::from_millis(500));
    let trace = s.engine().trace().expect("tracing on");
    let closed = trace.spans().iter().filter(|sp| sp.end.is_some()).count();
    assert_eq!(
        closed as u64,
        s.engine().completed_count(),
        "every completed kernel has a closed span"
    );
    for span in trace.spans() {
        if let Some(d) = span.duration() {
            assert!(!d.is_zero(), "kernels take time: {}", span.label);
        }
    }
}

#[test]
fn admission_modes_rank_sensibly_under_overload() {
    let pool = ContextPoolSpec::new(2, 1.0);
    let tasks = vec![compiled(&pool, 6); 26];
    let end = SimTime::ZERO + SimDuration::from_secs(2);
    let run_mode = |mode: Admission| {
        let mut cfg = SgprsConfig::new(pool.clone());
        cfg.admission = mode;
        SgprsScheduler::new(cfg, tasks.clone()).run(end)
    };
    let frame_buffer = run_mode(Admission::FrameBuffer);
    let skip = run_mode(Admission::SkipIfBusy);
    let queue_all = run_mode(Admission::QueueAll);
    // The frame buffer is work-conserving: it should not lose throughput
    // against the strictly self-throttling client.
    assert!(
        frame_buffer.total_fps >= skip.total_fps * 0.95,
        "frame buffer {:.0} vs skip {:.0}",
        frame_buffer.total_fps,
        skip.total_fps
    );
    // Queue-all never skips but its backlog makes responses explode.
    assert_eq!(queue_all.skipped, 0);
    assert!(queue_all.response_p95 >= frame_buffer.response_p95);
}

#[test]
fn naive_and_sgprs_share_metric_semantics() {
    let pool = ContextPoolSpec::new(2, 1.0);
    let tasks = vec![compiled(&pool, 6); 4];
    let end = SimTime::ZERO + SimDuration::from_secs(2);
    let naive = NaiveScheduler::new(NaiveConfig::new(2), tasks.clone()).run(end);
    let sgprs = SgprsScheduler::new(SgprsConfig::new(pool), tasks).run(end);
    // Same released count: the release grid is scheduler-independent.
    assert_eq!(naive.released, sgprs.released);
}

#[test]
fn six_stage_architecture_split_also_schedules() {
    // Use the architecture-boundary split instead of the balanced one.
    let pool = ContextPoolSpec::new(2, 1.5);
    let net = models::resnet18(1, 224);
    let cost = CostModel::calibrated();
    let stages = partition::resnet18_six_stages(&net, &cost).expect("named boundaries");
    let task = offline::compile_stages("t", &stages, net.work_profile(&cost), thirty_fps(), &pool);
    let mut s = SgprsScheduler::new(SgprsConfig::new(pool), vec![task; 8]);
    let m = s.run(SimTime::ZERO + SimDuration::from_secs(2));
    assert!(m.is_miss_free(), "{m:?}");
}

#[test]
fn wcet_profiling_is_consistent_with_engine_timing() {
    // A stage run alone on a context must finish within its profiled WCET.
    let pool = ContextPoolSpec::new(2, 1.0);
    let task = compiled(&pool, 6);
    let speedup = SpeedupModel::calibrated_rtx_2080_ti();
    for (j, profile) in task.stage_profiles.iter().enumerate() {
        let wcet = task.spec.stages[j].wcet;
        let nominal = offline::profile_wcet(profile, &speedup, 5_000, 34);
        assert_eq!(wcet, nominal, "stage {j} WCET is the profiled value");
    }
}
