//! Synthetic task-set generators for extension experiments.
//!
//! The paper evaluates identical tasks only. These generators produce the
//! harder inputs a real deployment sees — mixed models and randomised
//! utilisations — while staying deterministic under a seed:
//!
//! * [`uunifast`] — the classic UUniFast algorithm: `n` task utilisations
//!   summing to a target total, unbiased over the simplex.
//! * [`mixed_model_tasks`] — a round-robin mix of the reference networks
//!   at a common frame rate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sgprs_core::{offline, CompiledTask, ContextPoolSpec};
use sgprs_dnn::{models, CostModel, Network};
use sgprs_rt::SimDuration;

/// UUniFast (Bini & Buttazzo, 2005): draws `n` utilisations that sum to
/// `total` with an unbiased distribution over the simplex.
///
/// Returns an empty vector for `n == 0`. `total` may exceed 1 for
/// multiprocessor-style targets.
#[must_use]
pub fn uunifast(n: usize, total: f64, seed: u64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut utils = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let exp = 1.0 / (n - i) as f64;
        let next = sum * rng.random_range(0.0..1.0f64).powf(exp);
        utils.push(sum - next);
        sum = next;
    }
    utils.push(sum);
    utils
}

/// Compiles a task from any network at the given frame rate.
#[must_use]
pub fn compile_model_task(
    name: &str,
    net: &Network,
    fps: f64,
    stages: usize,
    pool: &ContextPoolSpec,
) -> CompiledTask {
    let period = SimDuration::from_fps(fps);
    offline::compile_network_task(name, net, &CostModel::calibrated(), stages, period, pool)
        .expect("reference networks split into small stage counts")
}

/// A heterogeneous task set cycling through ResNet18, MobileNet, and
/// AlexNet at a common frame rate.
#[must_use]
pub fn mixed_model_tasks(
    n: usize,
    fps: f64,
    stages: usize,
    pool: &ContextPoolSpec,
) -> Vec<CompiledTask> {
    let nets = [
        models::resnet18(1, 224),
        models::mobilenet(1, 224),
        models::alexnet(1, 224),
    ];
    (0..n)
        .map(|i| {
            let net = &nets[i % nets.len()];
            compile_model_task(&format!("{}-{i}", net.name), net, fps, stages, pool)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunifast_sums_to_target() {
        for n in [1, 2, 5, 20] {
            let u = uunifast(n, 0.8, 42);
            let sum: f64 = u.iter().sum();
            assert!((sum - 0.8).abs() < 1e-9, "n={n}: sum {sum}");
            assert_eq!(u.len(), n);
        }
    }

    #[test]
    fn uunifast_values_are_positive() {
        let u = uunifast(50, 2.0, 7);
        assert!(u.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn uunifast_is_deterministic_per_seed() {
        assert_eq!(uunifast(10, 1.0, 1), uunifast(10, 1.0, 1));
        assert_ne!(uunifast(10, 1.0, 1), uunifast(10, 1.0, 2));
    }

    #[test]
    fn uunifast_empty_for_zero_tasks() {
        assert!(uunifast(0, 1.0, 0).is_empty());
    }

    #[test]
    fn mixed_models_cycle_architectures() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = mixed_model_tasks(6, 30.0, 4, &pool);
        assert_eq!(tasks.len(), 6);
        assert!(tasks[0].spec.name.starts_with("resnet18"));
        assert!(tasks[1].spec.name.starts_with("mobilenet"));
        assert!(tasks[2].spec.name.starts_with("alexnet"));
        assert!(tasks.iter().all(|t| t.stage_count() == 4));
    }

    #[test]
    fn heterogeneous_tasks_have_distinct_wcets() {
        let pool = ContextPoolSpec::new(2, 1.0);
        let tasks = mixed_model_tasks(3, 30.0, 4, &pool);
        let wcets: Vec<_> = tasks.iter().map(|t| t.spec.total_stage_wcet()).collect();
        assert_ne!(wcets[0], wcets[1]);
        assert_ne!(wcets[1], wcets[2]);
    }
}
