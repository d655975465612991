//! Simulated time: instants and durations as integer nanoseconds.
//!
//! The whole reproduction runs on a discrete-event simulator, so time is a
//! logical quantity. Integer nanoseconds keep event ordering exact (no
//! floating-point drift) while being fine-grained enough for GPU kernels
//! that last tens of microseconds.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Subtracting
/// two instants yields a [`SimDuration`]; instants saturate at zero instead
/// of going negative.
///
/// # Example
///
/// ```
/// use sgprs_rt::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(5);
/// assert_eq!(t1.duration_since(t0), SimDuration::from_millis(5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
///
/// # Example
///
/// ```
/// use sgprs_rt::SimDuration;
///
/// let frame = SimDuration::from_micros(33_333);
/// assert_eq!(frame.as_nanos(), 33_333_000);
/// assert!((frame.as_secs_f64() - 0.033333).abs() < 1e-9);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely late" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed span since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition that never overflows past [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "unbounded" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds, saturating at
    /// [`SimDuration::MAX`].
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a span of `millis` milliseconds, saturating at
    /// [`SimDuration::MAX`].
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a span of `secs` whole seconds, saturating at
    /// [`SimDuration::MAX`].
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating on overflow or non-finite input.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }

    /// The period of a `fps`-per-second release rate, `1/fps` seconds
    /// rounded to the nearest nanosecond: every layer's rate-to-period
    /// conversion.
    #[inline]
    #[must_use]
    pub fn from_fps(fps: f64) -> Self {
        SimDuration::from_secs_f64(1.0 / fps)
    }

    /// The span in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in milliseconds, truncating.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in fractional seconds (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the span is empty.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative float, saturating.
    ///
    /// Used by the cost model to scale WCETs by speedup/contention factors.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }

    /// Integer-divides the span, rounding up. `div_ceil(0)` saturates to
    /// [`SimDuration::MAX`] rather than panicking.
    #[must_use]
    pub fn div_ceil(self, divisor: u64) -> SimDuration {
        if divisor == 0 {
            return SimDuration::MAX;
        }
        SimDuration(self.0.div_ceil(divisor))
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The ratio of two spans as a float. Returns `f64::INFINITY` when
    /// dividing by the empty span.
    #[must_use]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            f64::INFINITY
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero, mirroring integer division.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for SimDuration {
    fn from(nanos: u64) -> Self {
        SimDuration(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_nanos(500);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn instant_subtraction_saturates() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(100);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert_eq!(early - late, SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
    }

    #[test]
    fn whole_unit_constructors_saturate() {
        assert_eq!(SimDuration::from_micros(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX / 1_000), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs(18_446_744_074), SimDuration::MAX);
        // The largest whole second that still fits is exact.
        assert_eq!(
            SimDuration::from_secs(18_446_744_073).as_nanos(),
            18_446_744_073_000_000_000
        );
    }

    #[test]
    fn from_secs_f64_handles_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_nanos(1));
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_millis(20));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn div_ceil_rounds_up_and_handles_zero() {
        assert_eq!(
            SimDuration::from_nanos(10).div_ceil(3),
            SimDuration::from_nanos(4)
        );
        assert_eq!(
            SimDuration::from_nanos(9).div_ceil(3),
            SimDuration::from_nanos(3)
        );
        assert_eq!(SimDuration::from_nanos(9).div_ceil(0), SimDuration::MAX);
    }

    #[test]
    fn ratio_matches_float_division() {
        let a = SimDuration::from_millis(30);
        let b = SimDuration::from_millis(10);
        assert!((a.ratio(b) - 3.0).abs() < 1e-12);
        assert!(a.ratio(SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn saturating_add_never_overflows() {
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_nanos(1),
            SimDuration::MAX
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn min_max_are_consistent() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(a), a);
    }
}
