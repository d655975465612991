//! Property-based tests spanning the workspace: randomised workloads and
//! configurations must never violate the core invariants.

use proptest::prelude::*;
use sgprs_suite::core::{offline, ContextPoolSpec, SgprsConfig, SgprsScheduler};
use sgprs_suite::dnn::{models, partition, CostModel};
use sgprs_suite::rt::{EdfQueue, SimDuration, SimTime};
use sgprs_suite::workload::generator;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scheduler never panics and its metrics stay consistent for any
    /// (task count, stage count, over-subscription, seed) combination.
    #[test]
    fn scheduler_invariants_hold_for_random_configs(
        n_tasks in 1usize..12,
        stages in 1usize..8,
        os in 1.0f64..2.0,
        contexts in 1usize..4,
        seed in any::<u64>(),
    ) {
        let pool = ContextPoolSpec::new(contexts, os);
        let task = offline::compile_network_task(
            "t",
            &models::resnet18(1, 224),
            &CostModel::calibrated(),
            stages,
            SimDuration::from_micros(33_333),
            &pool,
        ).expect("stage count is small");
        let cfg = SgprsConfig::new(pool).with_seed(seed);
        let mut s = SgprsScheduler::new(cfg, vec![task; n_tasks]);
        let m = s.run(SimTime::ZERO + SimDuration::from_millis(800));
        prop_assert_eq!(m.completed, m.met + m.late);
        prop_assert!(m.dmr >= 0.0 && m.dmr <= 1.0);
        prop_assert!(m.total_fps >= 0.0);
        prop_assert!(m.response_p50 <= m.response_p95);
        prop_assert!(m.response_p95 <= m.response_max);
    }

    /// UUniFast always returns utilisations that are positive and sum to
    /// the requested total.
    #[test]
    fn uunifast_is_a_valid_simplex_sample(
        n in 1usize..64,
        total in 0.01f64..8.0,
        seed in any::<u64>(),
    ) {
        let utils = generator::uunifast(n, total, seed);
        prop_assert_eq!(utils.len(), n);
        let sum: f64 = utils.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9 * total.max(1.0));
        prop_assert!(utils.iter().all(|&u| u >= 0.0));
    }

    /// Every partition of every reference network covers each layer
    /// exactly once with contiguous stages.
    #[test]
    fn partitions_cover_layers_exactly_once(k in 1usize..20) {
        let net = models::mobilenet(1, 224);
        let cost = CostModel::calibrated();
        prop_assume!(k <= net.len());
        let stages = partition::by_count(&net, &cost, k).expect("k <= layers");
        prop_assert_eq!(stages.len(), k);
        let mut covered = 0usize;
        for s in &stages {
            for &l in &s.layers {
                prop_assert_eq!(l, covered, "contiguous, in order");
                covered += 1;
            }
        }
        prop_assert_eq!(covered, net.len());
    }

    /// Virtual deadline assignment always partitions the deadline exactly,
    /// whatever the WCET distribution.
    #[test]
    fn virtual_deadlines_always_sum_exactly(
        wcets_ms in prop::collection::vec(1u64..500, 1..12),
        deadline_ms in 1u64..1_000,
    ) {
        let wcets: Vec<SimDuration> =
            wcets_ms.iter().map(|&w| SimDuration::from_millis(w)).collect();
        let deadline = SimDuration::from_millis(deadline_ms);
        let vds = offline::assign_virtual_deadlines(&wcets, deadline);
        let sum = vds.iter().fold(SimDuration::ZERO, |a, &b| a + b);
        prop_assert_eq!(sum, deadline);
    }

    /// EDF queues always pop in non-decreasing deadline order.
    #[test]
    fn edf_queue_pops_in_deadline_order(
        deadlines in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut q = EdfQueue::new();
        for (i, &d) in deadlines.iter().enumerate() {
            q.push(i, SimTime::from_nanos(d));
        }
        let mut prev = SimTime::ZERO;
        while let Some(e) = q.pop() {
            prop_assert!(e.deadline >= prev);
            prev = e.deadline;
        }
    }
}
