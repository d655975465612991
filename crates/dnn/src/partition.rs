//! Stage partitioning: splitting a network into sub-tasks.
//!
//! SGPRS "divides a network (task) into multiple stages (sub-tasks) to
//! improve flexibility" (§IV). The evaluation splits ResNet18 into six
//! stages. This module slices a network's topological layer order into `k`
//! contiguous groups, balancing single-SM execution time greedily, and
//! emits one [`sgprs_gpu_sim::WorkProfile`] per stage.

use crate::{CostModel, DnnError, Network};
use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::WorkProfile;

/// One stage of a partitioned network: a contiguous run of layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Stage name (`"stage0"`, ... or boundary-derived).
    pub name: String,
    /// Indices of the layers in the stage (contiguous, topological order).
    pub layers: Vec<usize>,
    /// Aggregate work profile of the stage.
    pub profile: WorkProfile,
}

impl Stage {
    /// The stage's single-SM execution time in nanoseconds.
    #[must_use]
    pub fn single_sm_ns(&self) -> f64 {
        self.profile.total_single_sm_ns()
    }
}

/// Splits `net` into exactly `k` contiguous stages with greedily balanced
/// single-SM work.
///
/// The splitter walks the layers in topological order, accumulating work;
/// it closes the current stage once the running total reaches
/// `remaining_work / remaining_stages`, guaranteeing every stage gets at
/// least one layer.
///
/// # Errors
///
/// [`DnnError::InvalidPartition`] when `k` is zero or exceeds the layer
/// count.
pub fn by_count(net: &Network, cost: &CostModel, k: usize) -> Result<Vec<Stage>, DnnError> {
    let n = net.len();
    if k == 0 || k > n {
        return Err(DnnError::InvalidPartition {
            stages: k,
            layers: n,
        });
    }
    let work: Vec<f64> = net.layers().iter().map(|l| cost.single_sm_ns(l)).collect();
    let mut remaining_work: f64 = work.iter().sum();
    let mut stages = Vec::with_capacity(k);
    let mut current: Vec<usize> = Vec::new();
    let mut current_work = 0.0;
    let mut remaining_stages = k;
    for (i, &w) in work.iter().enumerate() {
        current.push(i);
        current_work += w;
        let layers_left = n - i - 1;
        let must_close = layers_left == remaining_stages - 1 && remaining_stages > 1;
        let target = remaining_work / remaining_stages as f64;
        let reached = current_work >= target && remaining_stages > 1;
        if must_close || (reached && layers_left >= remaining_stages - 1) {
            stages.push(make_stage(
                net,
                cost,
                stages.len(),
                std::mem::take(&mut current),
            ));
            remaining_work -= current_work;
            current_work = 0.0;
            remaining_stages -= 1;
        }
    }
    if !current.is_empty() {
        stages.push(make_stage(net, cost, stages.len(), current));
    }
    debug_assert_eq!(stages.len(), k);
    Ok(stages)
}

/// Splits `net` at explicit layer-name boundaries: each boundary name
/// *starts* a new stage (the first stage starts implicitly at layer 0).
///
/// # Errors
///
/// [`DnnError::UnknownNode`] if a boundary name does not occur in the
/// network.
pub fn at_boundaries(
    net: &Network,
    cost: &CostModel,
    boundaries: &[&str],
) -> Result<Vec<Stage>, DnnError> {
    let mut starts = vec![0usize];
    for &b in boundaries {
        let idx = net
            .layers()
            .iter()
            .position(|l| l.name == b)
            .ok_or(DnnError::UnknownNode { node: usize::MAX })?;
        starts.push(idx);
    }
    starts.sort_unstable();
    starts.dedup();
    let mut stages = Vec::with_capacity(starts.len());
    for (si, &start) in starts.iter().enumerate() {
        let end = starts.get(si + 1).copied().unwrap_or(net.len());
        let layers: Vec<usize> = (start..end).collect();
        if layers.is_empty() {
            continue;
        }
        stages.push(make_stage(net, cost, si, layers));
    }
    Ok(stages)
}

/// The paper's six-stage ResNet18 split: stem, the four residual layer
/// groups, and the classifier head.
///
/// # Errors
///
/// Propagates [`at_boundaries`] errors (never fails for [`crate::models::resnet18`]).
pub fn resnet18_six_stages(net: &Network, cost: &CostModel) -> Result<Vec<Stage>, DnnError> {
    at_boundaries(
        net,
        cost,
        &[
            "layer1.0.conv1",
            "layer2.0.conv1",
            "layer3.0.conv1",
            "layer4.0.conv1",
            "gap",
        ],
    )
}

fn make_stage(net: &Network, cost: &CostModel, index: usize, layers: Vec<usize>) -> Stage {
    let mut profile = WorkProfile::new();
    for &i in &layers {
        let layer = &net.layers()[i];
        profile.add(layer.op_class(), cost.single_sm_ns(layer));
    }
    Stage {
        name: format!("stage{index}"),
        layers,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn setup() -> (Network, CostModel) {
        (models::resnet18(1, 224), CostModel::calibrated())
    }

    #[test]
    fn by_count_covers_every_layer_exactly_once() {
        let (net, cost) = setup();
        for k in [1, 2, 6, 10] {
            let stages = by_count(&net, &cost, k).unwrap();
            assert_eq!(stages.len(), k);
            let mut seen = vec![false; net.len()];
            for s in &stages {
                for &l in &s.layers {
                    assert!(!seen[l], "layer {l} assigned twice");
                    seen[l] = true;
                }
            }
            assert!(seen.iter().all(|&x| x), "every layer covered (k={k})");
        }
    }

    #[test]
    fn by_count_stages_are_contiguous_and_ordered() {
        let (net, cost) = setup();
        let stages = by_count(&net, &cost, 6).unwrap();
        let mut expected = 0usize;
        for s in &stages {
            for &l in &s.layers {
                assert_eq!(l, expected);
                expected += 1;
            }
        }
    }

    #[test]
    fn by_count_balances_work_reasonably() {
        let (net, cost) = setup();
        let stages = by_count(&net, &cost, 6).unwrap();
        let total: f64 = stages.iter().map(Stage::single_sm_ns).sum();
        let mean = total / 6.0;
        for s in &stages {
            assert!(
                s.single_sm_ns() < 2.5 * mean,
                "stage {} is pathologically large: {} vs mean {}",
                s.name,
                s.single_sm_ns(),
                mean
            );
        }
    }

    #[test]
    fn by_count_rejects_degenerate_requests() {
        let (net, cost) = setup();
        assert!(matches!(
            by_count(&net, &cost, 0),
            Err(DnnError::InvalidPartition { .. })
        ));
        assert!(matches!(
            by_count(&net, &cost, net.len() + 1),
            Err(DnnError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn by_count_one_stage_equals_whole_network() {
        let (net, cost) = setup();
        let stages = by_count(&net, &cost, 1).unwrap();
        let whole = net.work_profile(&cost);
        assert!((stages[0].profile.total_single_sm_ns() - whole.total_single_sm_ns()).abs() < 1e-6);
    }

    #[test]
    fn max_stage_count_gives_one_layer_each() {
        let (net, cost) = setup();
        let stages = by_count(&net, &cost, net.len()).unwrap();
        assert!(stages.iter().all(|s| s.layers.len() == 1));
    }

    #[test]
    fn six_stage_resnet_split_follows_architecture() {
        let (net, cost) = setup();
        let stages = resnet18_six_stages(&net, &cost).unwrap();
        assert_eq!(stages.len(), 6);
        // Stage 0 is the stem: conv/bn/relu/maxpool.
        assert_eq!(stages[0].layers.len(), 4);
        // Final stage is gap + fc + softmax.
        assert_eq!(stages[5].layers.len(), 3);
        // Work is dominated by the middle stages, not the head.
        assert!(stages[5].single_sm_ns() < stages[1].single_sm_ns());
    }

    #[test]
    fn unknown_boundary_is_an_error() {
        let (net, cost) = setup();
        assert!(at_boundaries(&net, &cost, &["nonexistent"]).is_err());
    }

    #[test]
    fn stage_profiles_sum_to_network_profile() {
        let (net, cost) = setup();
        let stages = resnet18_six_stages(&net, &cost).unwrap();
        let sum: f64 = stages.iter().map(Stage::single_sm_ns).sum();
        let whole = net.work_profile(&cost).total_single_sm_ns();
        assert!((sum - whole).abs() / whole < 1e-9);
    }
}
