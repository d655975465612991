//! Run-time job instances of periodic tasks.
//!
//! Every period, a task releases a [`Job`]; the job carries one
//! [`StageInstance`] per stage of the task's DAG. The online phase of SGPRS
//! assigns each released stage an absolute deadline derived from the
//! offline virtual relative deadlines (§IV-B1); a task's
//! [`ReleaseTemplate`] works out the offsets once and stamps each release.

use crate::{PeriodicTaskSpec, PriorityLevel, SimDuration, SimTime, StageId, TaskId};
use serde::{Deserialize, Serialize};

/// Globally unique job identifier: the releasing task plus the release
/// index (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId {
    /// The releasing task.
    pub task: TaskId,
    /// 0-based release index of the task.
    pub release_index: u64,
}

impl core::fmt::Display for JobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}#{}", self.task, self.release_index)
    }
}

/// Lifecycle of a stage instance inside the online scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageState {
    /// Waiting for one or more predecessor stages to complete.
    Blocked,
    /// All predecessors done; sitting in a context queue.
    Ready,
    /// Currently occupying a stream slot on the device.
    Running,
    /// Finished execution.
    Completed,
    /// Abandoned (job aborted or dropped).
    Aborted,
}

/// One stage `τi^j` of a released job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageInstance {
    /// Which stage of the task this instance embodies.
    pub stage: StageId,
    /// Current lifecycle state.
    pub state: StageState,
    /// Absolute deadline `di^j` assigned at release (§IV-B1).
    pub absolute_deadline: SimTime,
    /// Effective priority (offline level, possibly promoted at run time).
    pub priority: PriorityLevel,
    /// Instant the stage became ready (predecessors all complete).
    pub ready_at: Option<SimTime>,
    /// Instant the stage started running on the device.
    pub started_at: Option<SimTime>,
    /// Instant the stage completed.
    pub completed_at: Option<SimTime>,
}

impl StageInstance {
    /// Creates a blocked instance with the given absolute deadline and
    /// offline priority.
    #[must_use]
    pub fn new(stage: StageId, absolute_deadline: SimTime, priority: PriorityLevel) -> Self {
        StageInstance {
            stage,
            state: StageState::Blocked,
            absolute_deadline,
            priority,
            ready_at: None,
            started_at: None,
            completed_at: None,
        }
    }

    /// `true` once the stage has completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self.state, StageState::Completed)
    }

    /// `true` if the stage completed after its absolute (virtual) deadline,
    /// or has not completed although the deadline already passed at `now`.
    #[must_use]
    pub fn missed_deadline(&self, now: SimTime) -> bool {
        match self.completed_at {
            Some(t) => t > self.absolute_deadline,
            None => now > self.absolute_deadline,
        }
    }
}

/// A released instance of a periodic task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id (task, release index).
    pub id: JobId,
    /// Release instant.
    pub release: SimTime,
    /// Absolute whole-job deadline `release + Di`.
    pub absolute_deadline: SimTime,
    /// Per-stage run-time state, indexed like the task's stage list.
    pub stages: Vec<StageInstance>,
    /// Completion instant of the final stage, once known.
    pub completed_at: Option<SimTime>,
}

/// What every release of one task shares (§IV-B1): each stage's deadline
/// offset from the release, its offline priority, and whether it is a DAG
/// source. Built once per task, so a release only stamps times.
///
/// Stage `j`'s offset is `Σ_{k ≤ j along its chain} D^k`. For general DAGs
/// it is the maximum over its predecessors' offsets plus its own virtual
/// deadline, which reduces to the paper's prefix sums for chain tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseTemplate {
    task: TaskId,
    deadline: SimDuration,
    /// Per stage: (deadline offset, offline priority).
    stages: Vec<(SimDuration, PriorityLevel)>,
    sources: Vec<usize>,
}

impl ReleaseTemplate {
    /// The template of task `task_id` with specification `task`.
    #[must_use]
    pub fn new(task_id: TaskId, task: &PeriodicTaskSpec) -> Self {
        let mut offsets = vec![SimDuration::ZERO; task.stages.len()];
        for i in task.topological_order() {
            let pred_max = task.stages[i]
                .predecessors
                .iter()
                .map(|&p| offsets[p])
                .max()
                .unwrap_or(SimDuration::ZERO);
            offsets[i] = pred_max + task.stages[i].virtual_deadline;
        }
        ReleaseTemplate {
            task: task_id,
            deadline: task.deadline,
            stages: offsets
                .into_iter()
                .zip(&task.stages)
                .map(|(offset, s)| (offset, s.priority))
                .collect(),
            sources: task.source_stages(),
        }
    }

    /// Indices of the stages with no predecessors: ready at release.
    #[must_use]
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Releases job `release_index` at `release`, stamping every stage's
    /// absolute deadline. The job's stages are built in `storage`, whose
    /// contents are discarded: pass a finished job's `stages` to reuse
    /// its allocation, or `Vec::new()`.
    #[must_use]
    pub fn release(
        &self,
        release_index: u64,
        release: SimTime,
        mut storage: Vec<StageInstance>,
    ) -> Job {
        storage.clear();
        storage.extend(
            self.stages
                .iter()
                .enumerate()
                .map(|(i, &(offset, priority))| {
                    StageInstance::new(StageId(i), release + offset, priority)
                }),
        );
        for &i in &self.sources {
            storage[i].state = StageState::Ready;
            storage[i].ready_at = Some(release);
        }
        Job {
            id: JobId {
                task: self.task,
                release_index,
            },
            release,
            absolute_deadline: release + self.deadline,
            stages: storage,
            completed_at: None,
        }
    }
}

impl Job {
    /// `true` once every stage (or the monolithic job) has completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        self.completed_at.is_some()
    }

    /// The job's outcome relative to its whole-job deadline, if finished.
    #[must_use]
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.completed_at.map(|t| {
            if t <= self.absolute_deadline {
                JobOutcome::MetDeadline {
                    response: t.duration_since(self.release),
                }
            } else {
                JobOutcome::MissedDeadline {
                    response: t.duration_since(self.release),
                    tardiness: t.duration_since(self.absolute_deadline),
                }
            }
        })
    }

    /// Marks stage `index` complete at `now` and unblocks any successors
    /// whose predecessors are now all complete, replacing the contents of
    /// `newly_ready` with their indices.
    pub fn complete_stage(
        &mut self,
        index: usize,
        now: SimTime,
        task: &PeriodicTaskSpec,
        newly_ready: &mut Vec<usize>,
    ) {
        self.stages[index].state = StageState::Completed;
        self.stages[index].completed_at = Some(now);
        newly_ready.clear();
        for (i, spec) in task.stages.iter().enumerate() {
            if self.stages[i].state == StageState::Blocked
                && spec.predecessors.contains(&index)
                && spec
                    .predecessors
                    .iter()
                    .all(|&p| self.stages[p].is_completed())
            {
                self.stages[i].state = StageState::Ready;
                self.stages[i].ready_at = Some(now);
                newly_ready.push(i);
            }
        }
        if self.stages.iter().all(StageInstance::is_completed) {
            self.completed_at = Some(now);
        }
    }
}

/// Terminal result of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Completed at or before the absolute deadline.
    MetDeadline {
        /// Response time (completion − release).
        response: SimDuration,
    },
    /// Completed after the absolute deadline.
    MissedDeadline {
        /// Response time (completion − release).
        response: SimDuration,
        /// Lateness beyond the deadline.
        tardiness: SimDuration,
    },
}

impl JobOutcome {
    /// `true` when the deadline was met.
    #[must_use]
    pub fn met(&self) -> bool {
        matches!(self, JobOutcome::MetDeadline { .. })
    }
}

/// Iterator-style generator of periodic release instants for one task.
///
/// # Example
///
/// ```
/// use sgprs_rt::{ReleaseGenerator, SimDuration, SimTime};
///
/// let mut gen = ReleaseGenerator::new(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(gen.next_release(), SimTime::ZERO);
/// gen.advance();
/// assert_eq!(gen.next_release(), SimTime::from_nanos(10_000_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseGenerator {
    next: SimTime,
    period: SimDuration,
    index: u64,
}

impl ReleaseGenerator {
    /// Creates a generator whose first release is at `phase`.
    #[must_use]
    pub fn new(phase: SimTime, period: SimDuration) -> Self {
        ReleaseGenerator {
            next: phase,
            period,
            index: 0,
        }
    }

    /// The upcoming release instant.
    #[must_use]
    pub fn next_release(&self) -> SimTime {
        self.next
    }

    /// The 0-based index of the upcoming release.
    #[must_use]
    pub fn next_index(&self) -> u64 {
        self.index
    }

    /// Consumes the upcoming release, moving to the one after.
    pub fn advance(&mut self) {
        self.next += self.period;
        self.index += 1;
    }

    /// Skips forward until the upcoming release is strictly after `now`.
    /// Returns how many releases were skipped.
    pub fn skip_until_after(&mut self, now: SimTime) -> u64 {
        let mut skipped = 0;
        while self.next <= now {
            self.advance();
            skipped += 1;
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PriorityAssignment, StageSpec};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn release(t: &PeriodicTaskSpec, at: SimTime) -> Job {
        ReleaseTemplate::new(TaskId(0), t).release(0, at, Vec::new())
    }

    /// Completes stage `index`, returning the newly ready stages.
    fn complete(job: &mut Job, index: usize, at: SimTime, t: &PeriodicTaskSpec) -> Vec<usize> {
        let mut ready = vec![usize::MAX]; // stale contents must be replaced
        job.complete_stage(index, at, t, &mut ready);
        ready
    }

    fn chain_task() -> PeriodicTaskSpec {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(ms(30))
            .equal_stage_chain(3, ms(9))
            .build()
            .unwrap();
        // Give every stage a 10 ms virtual deadline so offsets are 10/20/30.
        for s in &mut t.stages {
            s.virtual_deadline = ms(10);
        }
        PriorityAssignment::assign(&mut t);
        t
    }

    #[test]
    fn release_assigns_cumulative_absolute_deadlines() {
        let t = chain_task();
        let job = release(&t, SimTime::from_nanos(0));
        assert_eq!(job.stages[0].absolute_deadline, SimTime::ZERO + ms(10));
        assert_eq!(job.stages[1].absolute_deadline, SimTime::ZERO + ms(20));
        assert_eq!(job.stages[2].absolute_deadline, SimTime::ZERO + ms(30));
        assert_eq!(job.absolute_deadline, SimTime::ZERO + ms(30));
    }

    #[test]
    fn only_sources_start_ready() {
        let t = chain_task();
        let job = release(&t, SimTime::ZERO);
        assert_eq!(job.stages[0].state, StageState::Ready);
        assert_eq!(job.stages[1].state, StageState::Blocked);
        assert_eq!(job.stages[2].state, StageState::Blocked);
    }

    #[test]
    fn completing_stages_unblocks_successors_and_finishes_job() {
        let t = chain_task();
        let mut job = release(&t, SimTime::ZERO);
        let ready = complete(&mut job, 0, SimTime::ZERO + ms(5), &t);
        assert_eq!(ready, vec![1]);
        let ready = complete(&mut job, 1, SimTime::ZERO + ms(12), &t);
        assert_eq!(ready, vec![2]);
        assert!(!job.is_completed());
        let ready = complete(&mut job, 2, SimTime::ZERO + ms(20), &t);
        assert!(ready.is_empty());
        assert!(job.is_completed());
        assert!(job.outcome().unwrap().met());
    }

    #[test]
    fn release_reuses_storage_and_restamps_every_stage() {
        let t = chain_task();
        let template = ReleaseTemplate::new(TaskId(3), &t);
        assert_eq!(template.sources(), &[0]);
        let mut first = template.release(0, SimTime::ZERO, Vec::new());
        for i in 0..3 {
            complete(&mut first, i, SimTime::ZERO + ms(5), &t);
        }
        let storage = first.stages;
        let ptr = storage.as_ptr();
        let at = SimTime::ZERO + ms(30);
        let second = template.release(1, at, storage);
        assert_eq!(second.stages.as_ptr(), ptr, "stage storage is reused");
        let id = JobId {
            task: TaskId(3),
            release_index: 1,
        };
        assert_eq!(second.id, id);
        let fresh = template.release(1, at, Vec::new());
        assert_eq!(second, fresh, "a reused job equals a fresh one");
        assert_eq!(second.stages[2].absolute_deadline, at + ms(30));
    }

    #[test]
    fn diamond_stage_waits_for_all_predecessors() {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(ms(40))
            .stage(StageSpec::new("src", ms(1)))
            .stage(StageSpec::new("l", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("r", ms(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("sink", ms(1)).with_predecessors(vec![1, 2]))
            .build()
            .unwrap();
        for s in &mut t.stages {
            s.virtual_deadline = ms(10);
        }
        let mut job = release(&t, SimTime::ZERO);
        let r = complete(&mut job, 0, SimTime::ZERO + ms(1), &t);
        assert_eq!(r, vec![1, 2]);
        let r = complete(&mut job, 1, SimTime::ZERO + ms(2), &t);
        assert!(r.is_empty(), "sink still blocked on the right branch");
        let r = complete(&mut job, 2, SimTime::ZERO + ms(3), &t);
        assert_eq!(r, vec![3]);
        // Diamond deadline: max(pred offsets) + own virtual deadline = 30 ms.
        assert_eq!(job.stages[3].absolute_deadline, SimTime::ZERO + ms(30));
    }

    #[test]
    fn missed_outcome_reports_tardiness() {
        let t = chain_task();
        let mut job = release(&t, SimTime::ZERO);
        complete(&mut job, 0, SimTime::ZERO + ms(10), &t);
        complete(&mut job, 1, SimTime::ZERO + ms(20), &t);
        complete(&mut job, 2, SimTime::ZERO + ms(35), &t);
        match job.outcome().unwrap() {
            JobOutcome::MissedDeadline { tardiness, .. } => assert_eq!(tardiness, ms(5)),
            other => panic!("expected a miss, got {other:?}"),
        }
    }

    #[test]
    fn stage_miss_detection_uses_now_for_unfinished_stages() {
        let t = chain_task();
        let job = release(&t, SimTime::ZERO);
        assert!(!job.stages[0].missed_deadline(SimTime::ZERO + ms(9)));
        assert!(job.stages[0].missed_deadline(SimTime::ZERO + ms(11)));
    }

    #[test]
    fn release_generator_steps_and_skips() {
        let mut g = ReleaseGenerator::new(SimTime::ZERO, ms(10));
        assert_eq!(g.next_index(), 0);
        g.advance();
        g.advance();
        assert_eq!(g.next_release(), SimTime::ZERO + ms(20));
        assert_eq!(g.next_index(), 2);
        let skipped = g.skip_until_after(SimTime::ZERO + ms(45));
        assert_eq!(skipped, 3);
        assert_eq!(g.next_release(), SimTime::ZERO + ms(50));
    }
}
