//! SGPRS priority levels and the offline two-level assignment rule.
//!
//! The offline phase gives the *last* stage of every task high priority and
//! every other stage low priority (§IV-A1). At run time a third, *medium*
//! level is introduced: a low-priority stage is promoted to medium when its
//! preceding stage has missed its virtual deadline (§IV-B3).

use serde::{Deserialize, Serialize};

/// Stage priority in SGPRS's three-level queuing discipline.
///
/// `High > Medium > Low` in scheduling order; [`Ord`] reflects that, so
/// `PriorityLevel::High` compares greatest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PriorityLevel {
    /// Default level of every non-final stage (offline assignment).
    Low,
    /// Run-time promotion of a low stage whose predecessor missed its
    /// virtual deadline.
    Medium,
    /// Offline level of the final stage of every task.
    High,
}

impl PriorityLevel {
    /// All levels from highest to lowest scheduling precedence.
    pub const DESCENDING: [PriorityLevel; 3] = [
        PriorityLevel::High,
        PriorityLevel::Medium,
        PriorityLevel::Low,
    ];

    /// The level a low stage is promoted to after an upstream miss; high
    /// and medium stages keep their level.
    #[must_use]
    pub fn promoted(self) -> PriorityLevel {
        match self {
            PriorityLevel::Low => PriorityLevel::Medium,
            other => other,
        }
    }
}

impl core::fmt::Display for PriorityLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PriorityLevel::High => "high",
            PriorityLevel::Medium => "medium",
            PriorityLevel::Low => "low",
        };
        f.write_str(s)
    }
}

/// The offline two-level priority assignment of §IV-A1.
///
/// Applied to a task's stage list: sink stages (typically the single final
/// stage) become [`PriorityLevel::High`], all others [`PriorityLevel::Low`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityAssignment;

impl PriorityAssignment {
    /// Computes the offline priority of stage `index` given the task's sink
    /// stage indices.
    #[must_use]
    pub fn offline_level(sink_stages: &[usize], index: usize) -> PriorityLevel {
        if sink_stages.contains(&index) {
            PriorityLevel::High
        } else {
            PriorityLevel::Low
        }
    }

    /// Applies the two-level assignment to every stage of a task in place.
    pub fn assign(task: &mut crate::PeriodicTaskSpec) {
        let sinks = task.sink_stages();
        for (i, stage) in task.stages.iter_mut().enumerate() {
            stage.priority = Self::offline_level(&sinks, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeriodicTaskSpec, SimDuration, StageSpec};

    #[test]
    fn ordering_puts_high_first() {
        assert!(PriorityLevel::High > PriorityLevel::Medium);
        assert!(PriorityLevel::Medium > PriorityLevel::Low);
        assert_eq!(
            PriorityLevel::DESCENDING,
            [
                PriorityLevel::High,
                PriorityLevel::Medium,
                PriorityLevel::Low
            ]
        );
    }

    #[test]
    fn promotion_only_raises_low() {
        assert_eq!(PriorityLevel::Low.promoted(), PriorityLevel::Medium);
        assert_eq!(PriorityLevel::Medium.promoted(), PriorityLevel::Medium);
        assert_eq!(PriorityLevel::High.promoted(), PriorityLevel::High);
    }

    #[test]
    fn two_level_assignment_marks_last_stage_high() {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(SimDuration::from_millis(33))
            .equal_stage_chain(6, SimDuration::from_millis(12))
            .build()
            .unwrap();
        PriorityAssignment::assign(&mut t);
        for j in 0..5 {
            assert_eq!(t.stages[j].priority, PriorityLevel::Low, "stage {j}");
        }
        assert_eq!(t.stages[5].priority, PriorityLevel::High);
    }

    #[test]
    fn multi_sink_dag_gets_multiple_high_stages() {
        let mut t = PeriodicTaskSpec::builder("t")
            .period(SimDuration::from_millis(33))
            .stage(StageSpec::new("a", SimDuration::from_millis(1)))
            .stage(StageSpec::new("b", SimDuration::from_millis(1)).with_predecessors(vec![0]))
            .stage(StageSpec::new("c", SimDuration::from_millis(1)).with_predecessors(vec![0]))
            .build()
            .unwrap();
        PriorityAssignment::assign(&mut t);
        assert_eq!(t.stages[0].priority, PriorityLevel::Low);
        assert_eq!(t.stages[1].priority, PriorityLevel::High);
        assert_eq!(t.stages[2].priority, PriorityLevel::High);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(PriorityLevel::High.to_string(), "high");
        assert_eq!(PriorityLevel::Medium.to_string(), "medium");
        assert_eq!(PriorityLevel::Low.to_string(), "low");
    }
}
