//! The paper's task model: periodic DNN tasks structured as DAGs of stages.
//!
//! A task `τi` is a DNN; its nodes are *stages* (sub-tasks) `τi^j`. The
//! whole task has a period, a WCET `Ci`, and a relative deadline `Di`; each
//! stage carries its own WCET `Ci^j` and a *virtual* relative deadline
//! `Di^j` assigned by the offline phase (a share of `Di` proportional to the
//! stage's share of `Ci` — see §IV-A2 of the paper).

use crate::{PriorityLevel, RtError, SimDuration};
use serde::{Deserialize, Serialize};

/// One stage (sub-task) `τi^j` of a periodic DNN task.
///
/// Stages are produced either by the offline phase of SGPRS (which splits a
/// DNN into `k` stages and profiles each) or manually for synthetic
/// workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Human-readable stage label (e.g. `"layer3"`).
    pub name: String,
    /// Measured worst-case execution time `Ci^j` on the reference partition.
    pub wcet: SimDuration,
    /// Virtual relative deadline `Di^j` (offline phase output). The offline
    /// phase guarantees `Σj Di^j == Di` for chain-structured tasks.
    pub virtual_deadline: SimDuration,
    /// Offline two-level priority: high for the last stage, low otherwise.
    pub priority: PriorityLevel,
    /// Indices of stages that must complete before this one may start.
    pub predecessors: Vec<usize>,
}

impl StageSpec {
    /// Creates a stage with the given name and WCET, no predecessors, low
    /// priority, and a zero virtual deadline (to be assigned offline).
    #[must_use]
    pub fn new(name: impl Into<String>, wcet: SimDuration) -> Self {
        StageSpec {
            name: name.into(),
            wcet,
            virtual_deadline: SimDuration::ZERO,
            priority: PriorityLevel::Low,
            predecessors: Vec::new(),
        }
    }

    /// Sets the predecessor list (chain edges for sequential DNN stages).
    #[must_use]
    pub fn with_predecessors(mut self, preds: Vec<usize>) -> Self {
        self.predecessors = preds;
        self
    }
}

/// A periodic real-time DNN task `τi`: a DAG of stages plus timing
/// parameters.
///
/// Construct via [`PeriodicTaskSpec::builder`]; construction validates the
/// timing parameters and the stage graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodicTaskSpec {
    /// Human-readable name (e.g. `"resnet18-cam0"`).
    pub name: String,
    /// Release period (30 fps ⇒ 33.3 ms in the paper's evaluation).
    pub period: SimDuration,
    /// Relative deadline `Di` (implicit deadline = period if not overridden).
    pub deadline: SimDuration,
    /// Whole-task WCET `Ci` (the sum of stage WCETs for chain tasks).
    pub wcet: SimDuration,
    /// The stage DAG. Empty means the task is scheduled as a single
    /// monolithic job (the naive baseline's view).
    pub stages: Vec<StageSpec>,
    /// First release offset (phase); zero for synchronous release.
    pub phase: SimDuration,
}

impl PeriodicTaskSpec {
    /// Starts building a task with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> PeriodicTaskSpecBuilder {
        PeriodicTaskSpecBuilder::new(name)
    }

    /// Task utilisation `Ci / Ti`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet.ratio(self.period)
    }

    /// Number of stages (zero for monolithic tasks).
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Sum of the stage WCETs, or the whole-task WCET when the task has no
    /// stage decomposition.
    #[must_use]
    pub fn total_stage_wcet(&self) -> SimDuration {
        if self.stages.is_empty() {
            return self.wcet;
        }
        self.stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.wcet)
    }

    /// Returns the stages in a valid topological order.
    ///
    /// The order is stable for chains (identity). The graph was validated as
    /// acyclic at construction, so this never fails for built tasks.
    #[must_use]
    pub fn topological_order(&self) -> Vec<usize> {
        topological_order(&self.stages).expect("stage graph validated at construction")
    }

    /// Indices of stages with no predecessors (DAG sources).
    #[must_use]
    pub fn source_stages(&self) -> Vec<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.predecessors.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of stages that no other stage depends on (DAG sinks).
    #[must_use]
    pub fn sink_stages(&self) -> Vec<usize> {
        let mut has_successor = vec![false; self.stages.len()];
        for s in &self.stages {
            for &p in &s.predecessors {
                has_successor[p] = true;
            }
        }
        has_successor
            .iter()
            .enumerate()
            .filter(|(_, h)| !**h)
            .map(|(i, _)| i)
            .collect()
    }
}

fn topological_order(stages: &[StageSpec]) -> Result<Vec<usize>, ()> {
    let n = stages.len();
    let mut indegree = vec![0usize; n];
    for (i, s) in stages.iter().enumerate() {
        if s.predecessors.iter().any(|&p| p >= n) {
            return Err(());
        }
        indegree[i] = s.predecessors.len();
    }
    // Kahn's algorithm, smallest ready index first (the stack is kept in
    // descending order). A finished stage's successors are found by
    // scanning the short stage list in index order, so the in-degrees,
    // the ready stack and the order are the only buffers.
    let mut ready: Vec<usize> = (0..n).rev().filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(i);
        for (succ, s) in stages.iter().enumerate() {
            for _ in s.predecessors.iter().filter(|&&p| p == i) {
                indegree[succ] -= 1;
                if indegree[succ] == 0 {
                    ready.push(succ);
                    ready.sort_unstable_by(|a, b| b.cmp(a));
                }
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(())
    }
}

/// Builder for [`PeriodicTaskSpec`] (see `C-BUILDER`).
///
/// # Example
///
/// ```
/// use sgprs_rt::{PeriodicTaskSpec, SimDuration, StageSpec};
///
/// let task = PeriodicTaskSpec::builder("detector")
///     .period(SimDuration::from_millis(33))
///     .stage(StageSpec::new("stem", SimDuration::from_millis(2)))
///     .stage(StageSpec::new("head", SimDuration::from_millis(3)).with_predecessors(vec![0]))
///     .build()
///     .expect("valid task");
/// assert_eq!(task.stage_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicTaskSpecBuilder {
    name: String,
    period: Option<SimDuration>,
    deadline: Option<SimDuration>,
    wcet: Option<SimDuration>,
    stages: Vec<StageSpec>,
    phase: SimDuration,
}

impl PeriodicTaskSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        PeriodicTaskSpecBuilder {
            name: name.into(),
            period: None,
            deadline: None,
            wcet: None,
            stages: Vec::new(),
            phase: SimDuration::ZERO,
        }
    }

    /// Sets the release period (required).
    #[must_use]
    pub fn period(mut self, period: SimDuration) -> Self {
        self.period = Some(period);
        self
    }

    /// Sets the relative deadline `Di`; defaults to the period (implicit
    /// deadline).
    #[must_use]
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the whole-task WCET `Ci`; defaults to the sum of stage WCETs.
    #[must_use]
    pub fn wcet(mut self, wcet: SimDuration) -> Self {
        self.wcet = Some(wcet);
        self
    }

    /// Appends a stage to the DAG.
    #[must_use]
    pub fn stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Appends a chain of `n` equal stages summing to `total_wcet`, each
    /// depending on the previous one — the paper's "divide a network into
    /// multiple stages" in its simplest form.
    #[must_use]
    pub fn equal_stage_chain(mut self, n: usize, total_wcet: SimDuration) -> Self {
        if n == 0 {
            return self;
        }
        let per = total_wcet / n as u64;
        for j in 0..n {
            let mut s = StageSpec::new(format!("stage{j}"), per);
            if j > 0 {
                s.predecessors = vec![self.stages.len() - 1];
            }
            self.stages.push(s);
        }
        self
    }

    /// Sets the first-release offset.
    #[must_use]
    pub fn phase(mut self, phase: SimDuration) -> Self {
        self.phase = phase;
        self
    }

    /// Validates and builds the task.
    ///
    /// # Errors
    ///
    /// Returns [`RtError`] if the period, deadline, or WCET is zero, if a
    /// stage edge dangles, or if the stage graph is cyclic.
    pub fn build(self) -> Result<PeriodicTaskSpec, RtError> {
        let name = self.name;
        let period = self
            .period
            .ok_or_else(|| RtError::ZeroPeriod { task: name.clone() })?;
        if period.is_zero() {
            return Err(RtError::ZeroPeriod { task: name });
        }
        let deadline = self.deadline.unwrap_or(period);
        if deadline.is_zero() {
            return Err(RtError::ZeroDeadline { task: name });
        }
        let stage_sum = self
            .stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.wcet);
        let wcet = self.wcet.unwrap_or(stage_sum);
        if wcet.is_zero() {
            return Err(RtError::ZeroWcet { task: name });
        }
        for (i, s) in self.stages.iter().enumerate() {
            for &p in &s.predecessors {
                if p >= self.stages.len() || p == i {
                    return Err(RtError::DanglingStageEdge {
                        task: name,
                        stage: p,
                    });
                }
            }
        }
        if !self.stages.is_empty() && topological_order(&self.stages).is_err() {
            return Err(RtError::CyclicStageGraph { task: name });
        }
        Ok(PeriodicTaskSpec {
            name,
            period,
            deadline,
            wcet,
            stages: self.stages,
            phase: self.phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn builder_defaults_deadline_to_period_and_wcet_to_stage_sum() {
        let t = PeriodicTaskSpec::builder("t")
            .period(ms(30))
            .stage(StageSpec::new("a", ms(2)))
            .stage(StageSpec::new("b", ms(3)).with_predecessors(vec![0]))
            .build()
            .unwrap();
        assert_eq!(t.deadline, ms(30));
        assert_eq!(t.wcet, ms(5));
        assert_eq!(t.total_stage_wcet(), ms(5));
    }

    #[test]
    fn builder_rejects_zero_period() {
        let err = PeriodicTaskSpec::builder("t")
            .period(SimDuration::ZERO)
            .wcet(ms(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::ZeroPeriod { .. }));
    }

    #[test]
    fn builder_rejects_missing_period() {
        let err = PeriodicTaskSpec::builder("t")
            .wcet(ms(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::ZeroPeriod { .. }));
    }

    #[test]
    fn builder_rejects_zero_wcet() {
        let err = PeriodicTaskSpec::builder("t")
            .period(ms(10))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::ZeroWcet { .. }));
    }

    #[test]
    fn builder_rejects_dangling_edges_and_self_loops() {
        let err = PeriodicTaskSpec::builder("t")
            .period(ms(10))
            .stage(StageSpec::new("a", ms(1)).with_predecessors(vec![7]))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::DanglingStageEdge { stage: 7, .. }));

        let err = PeriodicTaskSpec::builder("t")
            .period(ms(10))
            .stage(StageSpec::new("a", ms(1)).with_predecessors(vec![0]))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::DanglingStageEdge { .. }));
    }

    #[test]
    fn builder_rejects_cycles() {
        let err = PeriodicTaskSpec::builder("t")
            .period(ms(10))
            .stage(StageSpec::new("a", ms(1)).with_predecessors(vec![1]))
            .stage(StageSpec::new("b", ms(1)).with_predecessors(vec![0]))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtError::CyclicStageGraph { .. }));
    }

    #[test]
    fn equal_stage_chain_builds_a_chain() {
        let t = PeriodicTaskSpec::builder("t")
            .period(ms(33))
            .equal_stage_chain(6, ms(12))
            .build()
            .unwrap();
        assert_eq!(t.stage_count(), 6);
        assert_eq!(t.total_stage_wcet(), ms(12));
        assert_eq!(t.source_stages(), vec![0]);
        assert_eq!(t.sink_stages(), vec![5]);
        assert_eq!(t.topological_order(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn utilization_ignores_the_deadline() {
        let t = PeriodicTaskSpec::builder("t")
            .period(ms(20))
            .deadline(ms(10))
            .wcet(ms(5))
            .build()
            .unwrap();
        assert!((t.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diamond_dag_orders_topologically() {
        let t = PeriodicTaskSpec::builder("t")
            .period(ms(10))
            .stage(StageSpec::new("src", ms(1)))
            .stage(StageSpec::new("l", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("r", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("sink", ms(1)).with_predecessors(vec![1, 2]))
            .build()
            .unwrap();
        let order = t.topological_order();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
        assert_eq!(t.sink_stages(), vec![3]);
    }
}
