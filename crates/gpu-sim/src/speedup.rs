//! Per-operation speedup curves calibrated to the paper's Figure 1.
//!
//! §III of the paper measures the speedup of ResNet18's constituent
//! operations as a function of SM count on an RTX 2080 Ti (68 SMs):
//! convolution peaks at 32×, max-pooling at 14×, and every other operation
//! stays below 7×; the full network reaches only 23× because the weakly
//! scaling layers dominate Amdahl-style.
//!
//! We model each operation class with an Amdahl curve
//! `s(m) = 1 / ((1 − p) + p/m)` and fit the parallel fraction `p` so that
//! `s(68)` reproduces the measured endpoint.

use serde::{Deserialize, Serialize};

/// Operation classes distinguished by the speedup analysis (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OpClass {
    /// 2-D convolution — the dominant, best-scaling ResNet18 operation.
    Convolution,
    /// Max pooling.
    MaxPool,
    /// Average pooling (global average pool in ResNet18).
    AvgPool,
    /// Batch normalisation.
    BatchNorm,
    /// Elementwise activation (ReLU).
    Activation,
    /// Elementwise residual addition.
    ElementwiseAdd,
    /// Fully connected / matrix–vector layer.
    Linear,
    /// Softmax / classification head bookkeeping.
    Softmax,
}

impl OpClass {
    /// Every class, in Figure-1 presentation order.
    pub const ALL: [OpClass; 8] = [
        OpClass::Convolution,
        OpClass::MaxPool,
        OpClass::AvgPool,
        OpClass::BatchNorm,
        OpClass::Activation,
        OpClass::ElementwiseAdd,
        OpClass::Linear,
        OpClass::Softmax,
    ];

    /// Position of the class in [`OpClass::ALL`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Convolution => "convolution",
            OpClass::MaxPool => "max_pool",
            OpClass::AvgPool => "avg_pool",
            OpClass::BatchNorm => "batch_norm",
            OpClass::Activation => "relu",
            OpClass::ElementwiseAdd => "add",
            OpClass::Linear => "linear",
            OpClass::Softmax => "softmax",
        }
    }
}

impl core::fmt::Display for OpClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// An Amdahl speedup curve `s(m) = 1 / ((1 − p) + p/m)`.
///
/// `p` is the parallelisable fraction of the operation's single-SM
/// execution time. For `m < 1` (a kernel squeezed below one SM by
/// processor sharing) the curve degrades linearly: `s(m) = m`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupCurve {
    parallel_fraction: f64,
}

impl SpeedupCurve {
    /// Creates a curve from a parallel fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or not finite.
    #[must_use]
    pub fn from_parallel_fraction(p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "parallel fraction must be in [0,1], got {p}"
        );
        SpeedupCurve {
            parallel_fraction: p,
        }
    }

    /// Fits `p` so that `s(m_ref) == target` (e.g. 32× at 68 SMs).
    ///
    /// # Panics
    ///
    /// Panics if `target < 1`, `m_ref ≤ 1`, or the target exceeds the
    /// theoretical maximum speedup `m_ref`.
    #[must_use]
    pub fn fitted(target: f64, m_ref: f64) -> Self {
        assert!(target >= 1.0, "speedup target must be ≥ 1, got {target}");
        assert!(m_ref > 1.0, "reference SM count must exceed 1");
        assert!(
            target <= m_ref,
            "target {target} exceeds linear speedup at {m_ref} SMs"
        );
        // 1/target = (1-p) + p/m_ref  ⇒  p = (1 - 1/target) / (1 - 1/m_ref)
        let p = (1.0 - 1.0 / target) / (1.0 - 1.0 / m_ref);
        SpeedupCurve::from_parallel_fraction(p)
    }

    /// The fitted parallel fraction.
    #[must_use]
    pub fn parallel_fraction(self) -> f64 {
        self.parallel_fraction
    }

    /// Speedup at `m` SMs (fractional `m` allowed; `m ≤ 0` yields 0).
    #[must_use]
    pub fn speedup(self, m: f64) -> f64 {
        if m <= 0.0 {
            return 0.0;
        }
        if m < 1.0 {
            return m;
        }
        let p = self.parallel_fraction;
        1.0 / ((1.0 - p) + p / m)
    }

    /// Asymptotic speedup `1 / (1 − p)` (∞ for p = 1).
    #[must_use]
    pub fn asymptote(self) -> f64 {
        let serial = 1.0 - self.parallel_fraction;
        if serial <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / serial
        }
    }
}

/// A device-wide speedup model: one fitted curve per operation class.
///
/// # Example
///
/// ```
/// use sgprs_gpu_sim::{OpClass, SpeedupModel};
///
/// let model = SpeedupModel::calibrated_rtx_2080_ti();
/// let conv = model.speedup(OpClass::Convolution, 68.0);
/// assert!((conv - 32.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupModel {
    curves: Vec<(OpClass, SpeedupCurve)>,
    /// [`SpeedupModel::curve`] of every class, indexed by
    /// [`OpClass::index`]: built once so [`SpeedupModel::speedup`] needs
    /// no search.
    table: [SpeedupCurve; OpClass::ALL.len()],
    /// Reference SM count the calibration targets refer to.
    pub m_ref: f64,
}

/// Figure-1 calibration targets at 68 SMs: (operation, measured speedup).
///
/// Convolution 32× and max-pool 14× are stated explicitly in the paper;
/// "other operations failed to exceed 7×" pins the remaining classes to
/// plausible values at or below 7.
pub const FIG1_TARGETS: [(OpClass, f64); 8] = [
    (OpClass::Convolution, 32.0),
    (OpClass::MaxPool, 14.0),
    (OpClass::AvgPool, 7.0),
    (OpClass::BatchNorm, 6.5),
    (OpClass::Activation, 5.0),
    (OpClass::ElementwiseAdd, 5.5),
    (OpClass::Linear, 4.0),
    (OpClass::Softmax, 3.0),
];

impl SpeedupModel {
    /// The model calibrated to the paper's Figure 1 on the 68-SM 2080 Ti.
    #[must_use]
    pub fn calibrated_rtx_2080_ti() -> Self {
        Self::from_targets(&FIG1_TARGETS, 68.0)
    }

    /// Builds a model by fitting one curve per `(op, target_speedup)` pair
    /// at the reference SM count `m_ref`.
    ///
    /// # Panics
    ///
    /// Panics if any target is infeasible (see [`SpeedupCurve::fitted`]).
    #[must_use]
    pub fn from_targets(targets: &[(OpClass, f64)], m_ref: f64) -> Self {
        let mut model = SpeedupModel {
            curves: targets
                .iter()
                .map(|&(op, s)| (op, SpeedupCurve::fitted(s, m_ref)))
                .collect(),
            table: [SpeedupCurve::from_parallel_fraction(0.0); OpClass::ALL.len()],
            m_ref,
        };
        model.table = OpClass::ALL.map(|op| model.curve(op));
        model
    }

    /// The curve for `op`; falls back to the slowest-scaling curve in the
    /// model for unknown classes so behaviour is conservative.
    #[must_use]
    pub fn curve(&self, op: OpClass) -> SpeedupCurve {
        self.curves
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| {
                self.curves
                    .iter()
                    .map(|(_, c)| *c)
                    .min_by(|a, b| {
                        a.parallel_fraction()
                            .partial_cmp(&b.parallel_fraction())
                            .expect("fractions are finite")
                    })
                    .unwrap_or(SpeedupCurve::from_parallel_fraction(0.0))
            })
    }

    /// Speedup of `op` at `m` SMs.
    #[must_use]
    pub fn speedup(&self, op: OpClass, m: f64) -> f64 {
        self.table[op.index()].speedup(m)
    }

    /// Iterates over the calibrated `(op, curve)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, SpeedupCurve)> + '_ {
        self.curves.iter().copied()
    }
}

impl Default for SpeedupModel {
    fn default() -> Self {
        SpeedupModel::calibrated_rtx_2080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_curves_hit_their_targets() {
        for (op, target) in FIG1_TARGETS {
            let c = SpeedupCurve::fitted(target, 68.0);
            let got = c.speedup(68.0);
            assert!(
                (got - target).abs() < 1e-9,
                "{op}: wanted {target}, got {got}"
            );
        }
    }

    #[test]
    fn speedup_is_monotone_and_concave() {
        let c = SpeedupCurve::fitted(32.0, 68.0);
        let mut prev = 0.0;
        let mut prev_gain = f64::INFINITY;
        for m in 1..=68 {
            let s = c.speedup(m as f64);
            assert!(s > prev, "monotone at m={m}");
            let gain = s - prev;
            assert!(gain <= prev_gain + 1e-9, "concave at m={m}");
            prev = s;
            prev_gain = gain;
        }
    }

    #[test]
    fn speedup_at_one_sm_is_one() {
        for (_, target) in FIG1_TARGETS {
            let c = SpeedupCurve::fitted(target, 68.0);
            assert!((c.speedup(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sub_sm_allocations_degrade_linearly() {
        let c = SpeedupCurve::fitted(14.0, 68.0);
        assert!((c.speedup(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(c.speedup(0.0), 0.0);
        assert_eq!(c.speedup(-3.0), 0.0);
    }

    #[test]
    fn paper_ordering_conv_gt_maxpool_gt_rest() {
        let model = SpeedupModel::calibrated_rtx_2080_ti();
        let at68 = |op| model.speedup(op, 68.0);
        let conv = at68(OpClass::Convolution);
        let maxpool = at68(OpClass::MaxPool);
        assert!(conv > maxpool);
        for op in [
            OpClass::AvgPool,
            OpClass::BatchNorm,
            OpClass::Activation,
            OpClass::ElementwiseAdd,
            OpClass::Linear,
            OpClass::Softmax,
        ] {
            assert!(
                at68(op) <= 7.0 + 1e-9,
                "{op} exceeds the paper's 7x ceiling: {}",
                at68(op)
            );
        }
    }

    #[test]
    fn asymptote_bounds_measured_speedup() {
        let c = SpeedupCurve::fitted(32.0, 68.0);
        assert!(c.asymptote() > 32.0);
        let perfectly_parallel = SpeedupCurve::from_parallel_fraction(1.0);
        assert!(perfectly_parallel.asymptote().is_infinite());
    }

    #[test]
    #[should_panic(expected = "exceeds linear speedup")]
    fn fitting_superlinear_target_panics() {
        let _ = SpeedupCurve::fitted(100.0, 68.0);
    }

    #[test]
    fn unknown_op_falls_back_conservatively() {
        // Build a model missing most classes.
        let model = SpeedupModel::from_targets(
            &[(OpClass::Convolution, 32.0), (OpClass::Softmax, 3.0)],
            68.0,
        );
        // Linear is not in the model: should fall back to the *worst*
        // (softmax) curve, not the conv curve.
        let got = model.speedup(OpClass::Linear, 68.0);
        assert!((got - 3.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_table_agrees_with_curve_lookup() {
        // Full calibration and a subset model whose missing classes take
        // the fallback curve.
        let subset = SpeedupModel::from_targets(
            &[(OpClass::Convolution, 32.0), (OpClass::Softmax, 3.0)],
            68.0,
        );
        for model in [SpeedupModel::calibrated_rtx_2080_ti(), subset] {
            for op in OpClass::ALL {
                assert_eq!(OpClass::ALL[op.index()], op);
                for m in [-1.0, 0.0, 0.5, 1.0, 2.5, 17.0, 34.0, 68.0, 136.0] {
                    assert_eq!(
                        model.speedup(op, m).to_bits(),
                        model.curve(op).speedup(m).to_bits(),
                        "{op} at {m} SMs"
                    );
                }
            }
        }
    }
}
