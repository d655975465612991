//! Kernels and work profiles: the unit of device work.
//!
//! A *kernel* in this simulator stands for everything a DNN stage submits
//! to the GPU in one go. Its [`WorkProfile`] records how much single-SM
//! execution time the stage spends in each operation class, so the engine
//! can derive the stage's running time at any SM allocation through the
//! per-class speedup curves.

use crate::{OpClass, SpeedupModel};
use serde::{Deserialize, Serialize};
use sgprs_rt::SimDuration;

/// One homogeneous slice of a stage's work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkSegment {
    /// Operation class this slice belongs to.
    pub op: OpClass,
    /// Execution time of the slice on a single SM, in nanoseconds.
    pub single_sm_ns: f64,
}

/// The operation-class mix of a kernel.
///
/// A profile holds at most one segment per [`OpClass`], so the segments
/// live inline and the profile is `Copy`. Segments keep their insertion
/// order: every sum over them runs in that order, which fixes the
/// floating-point result.
///
/// # Example
///
/// ```
/// use sgprs_gpu_sim::{OpClass, SpeedupModel, WorkProfile};
///
/// let mut profile = WorkProfile::new();
/// profile.add(OpClass::Convolution, 9_000_000.0);
/// profile.add(OpClass::Activation, 1_000_000.0);
/// let model = SpeedupModel::calibrated_rtx_2080_ti();
/// let t68 = profile.duration_at(&model, 68.0);
/// let t1 = profile.duration_at(&model, 1.0);
/// assert!(t68 < t1);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkProfile {
    /// `segments[..len]` are in use; the rest are unused filler.
    segments: [WorkSegment; OpClass::ALL.len()],
    len: usize,
}

impl WorkProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Self {
        const UNUSED: WorkSegment = WorkSegment {
            op: OpClass::Convolution,
            single_sm_ns: 0.0,
        };
        WorkProfile {
            segments: [UNUSED; OpClass::ALL.len()],
            len: 0,
        }
    }

    /// A profile consisting of a single operation class.
    #[must_use]
    pub fn single(op: OpClass, single_sm_ns: f64) -> Self {
        let mut p = WorkProfile::new();
        p.add(op, single_sm_ns);
        p
    }

    /// Adds `single_sm_ns` nanoseconds of single-SM work of class `op`,
    /// merging with an existing segment of the same class. Non-positive or
    /// non-finite amounts are ignored.
    pub fn add(&mut self, op: OpClass, single_sm_ns: f64) {
        if !single_sm_ns.is_finite() || single_sm_ns <= 0.0 {
            return;
        }
        if let Some(seg) = self.segments[..self.len].iter_mut().find(|s| s.op == op) {
            seg.single_sm_ns += single_sm_ns;
        } else {
            // One segment per class, so there is always a free slot.
            self.segments[self.len] = WorkSegment { op, single_sm_ns };
            self.len += 1;
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &WorkProfile) {
        for seg in other.segments() {
            self.add(seg.op, seg.single_sm_ns);
        }
    }

    /// The segments of this profile, in insertion order.
    #[must_use]
    pub fn segments(&self) -> &[WorkSegment] {
        &self.segments[..self.len]
    }

    /// Total single-SM execution time in nanoseconds.
    #[must_use]
    pub fn total_single_sm_ns(&self) -> f64 {
        self.segments().iter().map(|s| s.single_sm_ns).sum()
    }

    /// `true` when the profile carries no work.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.total_single_sm_ns() <= 0.0
    }

    /// Execution time of the whole profile at `m` SMs:
    /// `Σ_op work_op / s_op(m)` (each class scales by its own curve).
    #[must_use]
    pub fn duration_at(&self, model: &SpeedupModel, m: f64) -> SimDuration {
        let ns = self.duration_ns_at(model, m);
        if !ns.is_finite() {
            return SimDuration::MAX;
        }
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Like [`WorkProfile::duration_at`] but in raw (possibly infinite)
    /// nanoseconds, for rate computations inside the engine.
    #[must_use]
    pub fn duration_ns_at(&self, model: &SpeedupModel, m: f64) -> f64 {
        if m <= 0.0 {
            return f64::INFINITY;
        }
        self.segments()
            .iter()
            .map(|s| s.single_sm_ns / model.speedup(s.op, m))
            .sum()
    }

    /// The profile's *effective* speedup at `m` SMs: total single-SM time
    /// divided by the time at `m` SMs. This is what Figure 1 plots for the
    /// whole ResNet18 (≈ 23× at 68 SMs).
    #[must_use]
    pub fn effective_speedup(&self, model: &SpeedupModel, m: f64) -> f64 {
        let t_m = self.duration_ns_at(model, m);
        if t_m <= 0.0 || !t_m.is_finite() {
            return 0.0;
        }
        self.total_single_sm_ns() / t_m
    }

    /// Share of the total single-SM work belonging to class `op` ∈ [0, 1].
    #[must_use]
    pub fn fraction_of(&self, op: OpClass) -> f64 {
        let total = self.total_single_sm_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.segments()
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.single_sm_ns)
            .sum::<f64>()
            / total
    }
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile::new()
    }
}

/// Profiles are equal when their used segments are, in the same order;
/// the unused filler slots never count.
impl PartialEq for WorkProfile {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl FromIterator<WorkSegment> for WorkProfile {
    fn from_iter<I: IntoIterator<Item = WorkSegment>>(iter: I) -> Self {
        let mut p = WorkProfile::new();
        for seg in iter {
            p.add(seg.op, seg.single_sm_ns);
        }
        p
    }
}

/// Description of a kernel submitted to the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Label shown in traces (e.g. `"τ3#12/s4"`). The engine reads it
    /// only when tracing is on, so schedulers may leave it empty on
    /// untraced runs.
    pub label: String,
    /// The work the kernel performs.
    pub work: WorkProfile,
    /// Fixed serial overhead in nanoseconds added to the kernel's duration
    /// regardless of SM allocation (e.g. the naive baseline's partition
    /// reconfiguration cost — the cost SGPRS's *seamless* switching avoids).
    pub extra_ns: f64,
}

impl KernelDesc {
    /// Creates a kernel with the given trace label and work profile.
    #[must_use]
    pub fn new(label: impl Into<String>, work: WorkProfile) -> Self {
        KernelDesc {
            label: label.into(),
            work,
            extra_ns: 0.0,
        }
    }

    /// Adds a fixed serial overhead to the kernel (see [`KernelDesc::extra_ns`]).
    #[must_use]
    pub fn with_extra_ns(mut self, extra_ns: f64) -> Self {
        self.extra_ns = extra_ns.max(0.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SpeedupModel {
        SpeedupModel::calibrated_rtx_2080_ti()
    }

    #[test]
    fn add_merges_same_class() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 100.0);
        p.add(OpClass::Convolution, 50.0);
        assert_eq!(p.segments().len(), 1);
        assert!((p.total_single_sm_ns() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn add_ignores_garbage() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, -5.0);
        p.add(OpClass::Convolution, f64::NAN);
        p.add(OpClass::Convolution, 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn duration_shrinks_with_more_sms() {
        let p = WorkProfile::single(OpClass::Convolution, 1e6);
        let m = model();
        let mut prev = SimDuration::MAX;
        for sms in [1.0, 2.0, 4.0, 17.0, 34.0, 68.0] {
            let d = p.duration_at(&m, sms);
            assert!(d < prev, "duration must shrink at {sms} SMs");
            prev = d;
        }
    }

    #[test]
    fn mixed_profile_speedup_is_between_component_speedups() {
        let m = model();
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 9e6);
        p.add(OpClass::Softmax, 1e6);
        let s = p.effective_speedup(&m, 68.0);
        assert!(s < m.speedup(OpClass::Convolution, 68.0));
        assert!(s > m.speedup(OpClass::Softmax, 68.0));
    }

    #[test]
    fn pure_profile_matches_curve() {
        let m = model();
        let p = WorkProfile::single(OpClass::MaxPool, 1e6);
        let s = p.effective_speedup(&m, 68.0);
        assert!((s - 14.0).abs() < 1e-6);
    }

    #[test]
    fn zero_sms_means_infinite_duration() {
        let p = WorkProfile::single(OpClass::Convolution, 1e6);
        assert_eq!(p.duration_at(&model(), 0.0), SimDuration::MAX);
        assert!(p.duration_ns_at(&model(), 0.0).is_infinite());
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Convolution, 3.0);
        p.add(OpClass::Linear, 1.0);
        let total: f64 = OpClass::ALL.iter().map(|&op| p.fraction_of(op)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((p.fraction_of(OpClass::Convolution) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_profiles() {
        let mut a = WorkProfile::single(OpClass::Convolution, 10.0);
        let b = WorkProfile::single(OpClass::Convolution, 5.0);
        a.merge(&b);
        assert!((a.total_single_sm_ns() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_merge_keep_insertion_order() {
        let mut p = WorkProfile::new();
        p.add(OpClass::Activation, 1.0);
        p.add(OpClass::Convolution, 2.0);
        p.add(OpClass::Activation, 3.0);
        let mut other = WorkProfile::single(OpClass::Linear, 4.0);
        other.add(OpClass::Convolution, 5.0);
        p.merge(&other);
        let got: Vec<(OpClass, f64)> = p
            .segments()
            .iter()
            .map(|s| (s.op, s.single_sm_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                (OpClass::Activation, 4.0),
                (OpClass::Convolution, 7.0),
                (OpClass::Linear, 4.0),
            ]
        );
    }

    #[test]
    fn every_op_class_fits() {
        let mut p = WorkProfile::new();
        for round in 0..2 {
            for (i, &op) in OpClass::ALL.iter().rev().enumerate() {
                p.add(op, (i + 1 + round) as f64);
            }
        }
        let order: Vec<OpClass> = p.segments().iter().map(|s| s.op).collect();
        let mut expected = OpClass::ALL.to_vec();
        expected.reverse();
        assert_eq!(order, expected, "one segment per class, first-seen order");
        assert!((p.total_single_sm_ns() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn equality_ignores_unused_slots_but_not_order() {
        let mut a = WorkProfile::single(OpClass::Convolution, 1.0);
        a.add(OpClass::Linear, 2.0);
        let mut b = a;
        b.segments[OpClass::ALL.len() - 1] = WorkSegment {
            op: OpClass::Softmax,
            single_sm_ns: 9.0,
        };
        assert_eq!(a, b, "filler beyond the used segments never counts");
        let mut swapped = WorkProfile::single(OpClass::Linear, 2.0);
        swapped.add(OpClass::Convolution, 1.0);
        assert_ne!(a, swapped, "segment order is part of the value");
        assert_eq!(WorkProfile::new(), WorkProfile::default());
    }

    #[test]
    fn extra_ns_is_clamped_non_negative() {
        let desc = KernelDesc::new("k", WorkProfile::single(OpClass::Convolution, 1.0))
            .with_extra_ns(-5.0);
        assert_eq!(desc.extra_ns, 0.0);
        let desc = desc.with_extra_ns(123.0);
        assert_eq!(desc.extra_ns, 123.0);
    }

    #[test]
    fn from_iterator_collects() {
        let p: WorkProfile = [
            WorkSegment {
                op: OpClass::Convolution,
                single_sm_ns: 1.0,
            },
            WorkSegment {
                op: OpClass::Convolution,
                single_sm_ns: 2.0,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(p.segments().len(), 1);
        assert!((p.total_single_sm_ns() - 3.0).abs() < 1e-12);
    }
}
