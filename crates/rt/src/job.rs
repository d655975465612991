//! Run-time job instances of periodic tasks.
//!
//! Every period, a task releases a [`Job`]; the job carries one
//! [`StageInstance`] per stage of the task's DAG. The online phase of SGPRS
//! assigns each released stage an absolute deadline derived from the
//! offline virtual relative deadlines (§IV-B1); a task's
//! [`ReleaseTemplate`] works out the offsets once and stamps each release.

use crate::{PeriodicTaskSpec, SimDuration, SimTime, StageSpec};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Readiness of a stage instance inside the online scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageState {
    /// Waiting for one or more predecessor stages to complete.
    Blocked,
    /// All predecessors done; queued or running.
    Ready,
    /// Finished execution.
    Completed,
}

/// One stage `τi^j` of a released job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageInstance {
    /// Current readiness.
    pub state: StageState,
    /// Absolute deadline `di^j` assigned at release (§IV-B1).
    pub absolute_deadline: SimTime,
}

/// A released instance of a periodic task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// 0-based release index of the releasing task.
    pub release_index: u64,
    /// Release instant.
    pub release: SimTime,
    /// Absolute whole-job deadline `release + Di`.
    pub absolute_deadline: SimTime,
    /// Per-stage run-time state, indexed like the task's stage list.
    pub stages: Vec<StageInstance>,
    /// Completion instant of the final stage, once known.
    pub completed_at: Option<SimTime>,
    /// Stages not yet completed: [`Job::complete_stage`] finishes the job
    /// when the count reaches zero.
    unfinished: usize,
}

/// What every release of one task shares (§IV-B1): each stage's deadline
/// offset from the release, its successors, and whether it is a DAG
/// source. A pure function of the task's timing and edges, built once by
/// the offline phase, so a release only stamps times and a completion
/// visits only the finished stage's successors.
///
/// Stage `j`'s offset is `Σ_{k ≤ j along its chain} D^k`. For general DAGs
/// it is the maximum over its predecessors' offsets plus its own virtual
/// deadline, which reduces to the paper's prefix sums for chain tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseTemplate {
    deadline: SimDuration,
    stages: Vec<StageTemplate>,
    sources: Vec<usize>,
    /// Every stage's successors, ascending, stage after stage; a stage's
    /// [`StageTemplate::successors`] ranges over its own.
    successors: Vec<usize>,
}

/// One stage of a [`ReleaseTemplate`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct StageTemplate {
    /// Deadline offset from the release.
    offset: SimDuration,
    /// The stage's successors in [`ReleaseTemplate::successors`].
    successors: Range<usize>,
}

/// The stages of `task` that list `stage` among their predecessors,
/// ascending.
fn successors_of(task: &PeriodicTaskSpec, stage: usize) -> impl Iterator<Item = usize> + '_ {
    (0..task.stages.len()).filter(move |&i| task.stages[i].predecessors.contains(&stage))
}

impl ReleaseTemplate {
    /// The template of the task with specification `task`.
    #[must_use]
    pub fn new(task: &PeriodicTaskSpec) -> Self {
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
        let edges = (0..task.stages.len())
            .map(|p| successors_of(task, p).count())
            .sum();
        let mut successors = Vec::with_capacity(edges);
        let stages = offsets
            .into_iter()
            .enumerate()
            .map(|(p, offset)| {
                let start = successors.len();
                successors.extend(successors_of(task, p));
                StageTemplate {
                    offset,
                    successors: start..successors.len(),
                }
            })
            .collect();
        ReleaseTemplate {
            deadline: task.deadline,
            stages,
            sources: task.source_stages(),
            successors,
        }
    }

    /// Indices of the stages with no predecessors: ready at release.
    #[must_use]
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// `true` when this is the template of `task`: [`Self::new`]`(task)`
    /// would rebuild it exactly. Checks every stage's offset against its
    /// predecessors' (the recurrence has one solution on a DAG) and its
    /// successor list against the task's edges, so it allocates nothing
    /// and may guard a path that must not.
    #[must_use]
    pub fn fits(&self, task: &PeriodicTaskSpec) -> bool {
        let offset_of = |p: usize| self.stages.get(p).map(|s| s.offset);
        let stage_fits = |(s, t): (&StageSpec, &StageTemplate)| {
            let pred_max = s
                .predecessors
                .iter()
                .try_fold(SimDuration::ZERO, |max, &p| {
                    offset_of(p).map(|o| max.max(o))
                });
            pred_max.is_some_and(|m| t.offset == m + s.virtual_deadline)
        };
        let sources = (0..task.stages.len()).filter(|&i| task.stages[i].predecessors.is_empty());
        // The ranges tile the successor table in stage order.
        let mut end = 0;
        let successors_fit = self.stages.iter().enumerate().all(|(p, t)| {
            let listed = self.successors.get(t.successors.clone());
            let fits = t.successors.start == end
                && listed.is_some_and(|l| l.iter().copied().eq(successors_of(task, p)));
            end = t.successors.end;
            fits
        }) && end == self.successors.len();
        self.deadline == task.deadline
            && self.stages.len() == task.stages.len()
            && task.stages.iter().zip(&self.stages).all(stage_fits)
            && self.sources.iter().copied().eq(sources)
            && successors_fit
    }

    /// Releases job `release_index` of the template's task at `release`,
    /// stamping every stage's absolute deadline. The job's stages are
    /// built in `storage`, whose contents are discarded: pass a finished
    /// job's `stages` to reuse its allocation, or `Vec::new()`.
    #[must_use]
    pub fn release(
        &self,
        release_index: u64,
        release: SimTime,
        mut storage: Vec<StageInstance>,
    ) -> Job {
        storage.clear();
        storage.extend(self.stages.iter().map(|s| StageInstance {
            state: StageState::Blocked,
            absolute_deadline: release + s.offset,
        }));
        for &i in &self.sources {
            storage[i].state = StageState::Ready;
        }
        Job {
            release_index,
            release,
            absolute_deadline: release + self.deadline,
            unfinished: storage.len(),
            stages: storage,
            completed_at: None,
        }
    }
}

impl Job {
    /// Marks stage `index` complete at `now` and unblocks any successors
    /// whose predecessors are now all complete, replacing the contents of
    /// `newly_ready` with their indices, ascending. `template` is the
    /// release template of `task` (the one that released the job): only
    /// the finished stage's successors are visited. The job completes at
    /// `now` once no stage is left unfinished.
    pub fn complete_stage(
        &mut self,
        index: usize,
        now: SimTime,
        template: &ReleaseTemplate,
        task: &PeriodicTaskSpec,
        newly_ready: &mut Vec<usize>,
    ) {
        let stage = &mut self.stages[index].state;
        if *stage != StageState::Completed {
            self.unfinished -= 1;
        }
        *stage = StageState::Completed;
        newly_ready.clear();
        for &i in &template.successors[template.stages[index].successors.clone()] {
            if self.stages[i].state == StageState::Blocked
                && task.stages[i]
                    .predecessors
                    .iter()
                    .all(|&p| self.stages[p].state == StageState::Completed)
            {
                self.stages[i].state = StageState::Ready;
                newly_ready.push(i);
            }
        }
        if self.unfinished == 0 {
            self.completed_at = Some(now);
        }
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
}

impl ReleaseGenerator {
    /// Creates a generator whose first release is at `phase`.
    #[must_use]
    pub fn new(phase: SimTime, period: SimDuration) -> Self {
        ReleaseGenerator {
            next: phase,
            period,
        }
    }

    /// The upcoming release instant.
    #[must_use]
    pub fn next_release(&self) -> SimTime {
        self.next
    }

    /// Consumes the upcoming release, moving to the one after.
    pub fn advance(&mut self) {
        self.next += self.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PriorityAssignment, PriorityLevel};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn release(t: &PeriodicTaskSpec, at: SimTime) -> Job {
        ReleaseTemplate::new(t).release(0, at, Vec::new())
    }

    /// Completes stage `index`, returning the newly ready stages.
    fn complete(job: &mut Job, index: usize, at: SimTime, t: &PeriodicTaskSpec) -> Vec<usize> {
        let mut ready = vec![usize::MAX]; // stale contents must be replaced
        job.complete_stage(index, at, &ReleaseTemplate::new(t), t, &mut ready);
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
        assert_eq!(job.completed_at, None);
        let ready = complete(&mut job, 2, SimTime::ZERO + ms(20), &t);
        assert!(ready.is_empty());
        assert_eq!(job.completed_at, Some(SimTime::ZERO + ms(20)));
    }

    #[test]
    fn release_reuses_storage_and_restamps_every_stage() {
        let t = chain_task();
        let template = ReleaseTemplate::new(&t);
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
        assert_eq!(second.release_index, 1);
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
    fn a_template_fits_its_task_and_no_edited_one() {
        let t = chain_task();
        let template = ReleaseTemplate::new(&t);
        assert!(template.fits(&t));
        // Priorities are read from the task, not the template.
        let mut reprioritised = t.clone();
        reprioritised.stages[2].priority = PriorityLevel::Medium;
        assert!(template.fits(&reprioritised));
        let edits: [fn(&mut PeriodicTaskSpec); 5] = [
            |t| t.stages[1].virtual_deadline = ms(11),
            |t| t.deadline = ms(31),
            |t| t.stages[2].predecessors = vec![0],
            // Every offset holds (stage 1's dominates), only stage 0's
            // successors change.
            |t| t.stages[2].predecessors = vec![0, 1],
            |t| t.stages.truncate(2),
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut edited = t.clone();
            edit(&mut edited);
            assert!(!template.fits(&edited), "edit {i}");
            assert!(ReleaseTemplate::new(&edited).fits(&edited), "edit {i}");
        }
    }

    /// Reference completion by a full scan: marks stage `index` complete
    /// and readies, ascending, every blocked stage that lists it among its
    /// predecessors and has all of them complete; the job completes once
    /// every stage has. Returns the readied stages and the completion.
    fn scanned_completion(
        job: &mut Job,
        index: usize,
        now: SimTime,
        task: &PeriodicTaskSpec,
    ) -> (Vec<usize>, Option<SimTime>) {
        let completed = |s: &StageInstance| s.state == StageState::Completed;
        job.stages[index].state = StageState::Completed;
        let mut ready = Vec::new();
        for (i, spec) in task.stages.iter().enumerate() {
            if job.stages[i].state == StageState::Blocked
                && spec.predecessors.contains(&index)
                && spec.predecessors.iter().all(|&p| completed(&job.stages[p]))
            {
                job.stages[i].state = StageState::Ready;
                ready.push(i);
            }
        }
        if job.stages.iter().all(completed) {
            job.completed_at = Some(now);
        }
        (ready, job.completed_at)
    }

    /// A random DAG of 1–8 stages: each stage's predecessors are a
    /// random subset of the stages before it in a random order, so edges
    /// run both up and down the index range.
    fn random_dag(next: &mut impl FnMut(usize) -> usize) -> PeriodicTaskSpec {
        let n = 1 + next(8);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, next(i + 1));
        }
        let mut preds = vec![Vec::new(); n];
        for (k, &stage) in order.iter().enumerate() {
            preds[stage] = order[..k]
                .iter()
                .copied()
                .filter(|_| next(3) == 0)
                .collect();
        }
        let mut builder = PeriodicTaskSpec::builder("dag").period(ms(40));
        for (i, p) in preds.into_iter().enumerate() {
            let stage = StageSpec::new(format!("s{i}"), ms(1)).with_predecessors(p);
            builder = builder.stage(stage);
        }
        let mut t = builder.build().expect("a DAG");
        for (i, s) in t.stages.iter_mut().enumerate() {
            s.virtual_deadline = ms(1 + i as u64);
        }
        t
    }

    #[test]
    fn successor_completion_matches_a_full_scan_on_random_dags() {
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let mut steps = 0;
        for case in 0..500 {
            let t = random_dag(&mut next);
            let template = ReleaseTemplate::new(&t);
            assert!(template.fits(&t), "case {case}");
            let at = SimTime::ZERO + ms(case);
            let mut job = template.release(case, at, Vec::new());
            let mut reference = job.clone();
            let mut ready: Vec<usize> = template.sources().to_vec();
            let mut newly_ready = Vec::new();
            let mut clock = at;
            // Complete a random ready stage until none is left: a random
            // topological order.
            while !ready.is_empty() {
                let stage = ready.swap_remove(next(ready.len()));
                clock += ms(1);
                job.complete_stage(stage, clock, &template, &t, &mut newly_ready);
                let expected = scanned_completion(&mut reference, stage, clock, &t);
                assert_eq!(
                    (newly_ready.clone(), job.completed_at),
                    expected,
                    "case {case}: completing stage {stage}"
                );
                assert_eq!(job.stages, reference.stages, "case {case}");
                ready.extend(&newly_ready);
                steps += 1;
            }
            assert_eq!(
                job.completed_at,
                Some(clock),
                "case {case}: every stage ran"
            );
        }
        assert!(steps > 1_500, "{steps} completions");
    }

    #[test]
    fn release_generator_steps() {
        let mut g = ReleaseGenerator::new(SimTime::ZERO, ms(10));
        g.advance();
        g.advance();
        assert_eq!(g.next_release(), SimTime::ZERO + ms(20));
    }
}
