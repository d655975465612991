//! Fixed-interval time-series windows over one fleet run.
//!
//! Simulated time is cut into windows of [`crate::TelemetryConfig::window`]
//! length; each window accumulates the dispatch activity that fell inside
//! it (admissions, rejections, deferrals, expiries, re-pricing steps,
//! migrations, departures), the peak wait-queue depth, the mean sampled
//! fleet utilisation, and a per-window queue-wait sketch. Every record
//! happens on the single-threaded orchestration path of either engine,
//! and utilisation is folded in ascending node index, so the series is a
//! deterministic function of `(config, trace, horizon)` — byte-identical
//! across worker counts.

use super::sketch::QuantileSketch;
use crate::DispatchCounts;
use sgprs_rt::{SimDuration, SimTime};

/// One window's accumulated activity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowStats {
    /// The dispatch decisions that fell inside this window.
    pub(crate) counts: DispatchCounts,
    /// Largest wait-queue depth observed after any queue mutation.
    pub(crate) queue_depth_peak: u64,
    utilization_sum: f64,
    utilization_samples: u64,
    /// Queue waits of deferrals admitted inside this window.
    pub(crate) wait: QuantileSketch,
}

impl WindowStats {
    fn new(sketch_capacity: usize) -> Self {
        WindowStats {
            counts: DispatchCounts::default(),
            queue_depth_peak: 0,
            utilization_sum: 0.0,
            utilization_samples: 0,
            wait: QuantileSketch::new(sketch_capacity),
        }
    }

    /// Mean of the utilisation samples folded into this window (0 when
    /// none landed here).
    pub(crate) fn utilization_mean(&self) -> f64 {
        if self.utilization_samples > 0 {
            self.utilization_sum / self.utilization_samples as f64
        } else {
            0.0
        }
    }

    pub(crate) fn record_utilization(&mut self, utilization: f64) {
        self.utilization_sum += utilization;
        self.utilization_samples += 1;
    }

    pub(crate) fn note_queue_depth(&mut self, depth: u64) {
        self.queue_depth_peak = self.queue_depth_peak.max(depth);
    }
}

/// The window series of one run: windows materialise lazily (gaps are
/// filled with empty windows) and instants at or past the horizon clamp
/// into the final window, so end-of-run samples do not open a phantom
/// extra window.
#[derive(Debug, Clone)]
pub(crate) struct WindowSeries {
    window_ns: u64,
    /// Highest admissible window index (`ceil(horizon/window) - 1`).
    last_index: u64,
    sketch_capacity: usize,
    windows: Vec<WindowStats>,
}

impl WindowSeries {
    /// A series of `window`-length windows covering `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn new(
        window: SimDuration,
        horizon: SimDuration,
        sketch_capacity: usize,
    ) -> Self {
        assert!(!window.is_zero(), "telemetry window must be positive");
        let window_ns = window.as_nanos();
        let last_index = horizon.as_nanos().div_ceil(window_ns).saturating_sub(1);
        WindowSeries {
            window_ns,
            last_index,
            sketch_capacity,
            windows: Vec::new(),
        }
    }

    /// The window length.
    pub(crate) fn window(&self) -> SimDuration {
        SimDuration::from_nanos(self.window_ns)
    }

    /// The window covering instant `at`, materialising it (and any gap
    /// before it) on first touch.
    pub(crate) fn at(&mut self, at: SimTime) -> &mut WindowStats {
        let index = (at.duration_since(SimTime::ZERO).as_nanos() / self.window_ns)
            .min(self.last_index) as usize;
        while self.windows.len() <= index {
            self.windows.push(WindowStats::new(self.sketch_capacity));
        }
        &mut self.windows[index]
    }

    /// The materialised windows, in time order.
    pub(crate) fn windows(&self) -> &[WindowStats] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn instants_land_in_their_windows() {
        let mut s = WindowSeries::new(
            SimDuration::from_millis(250),
            SimDuration::from_secs(1),
            16,
        );
        s.at(at(0)).counts.arrivals += 1;
        s.at(at(249)).counts.arrivals += 1;
        s.at(at(250)).counts.arrivals += 1;
        s.at(at(900)).counts.arrivals += 1;
        assert_eq!(s.windows().len(), 4);
        assert_eq!(s.windows()[0].counts.arrivals, 2);
        assert_eq!(s.windows()[1].counts.arrivals, 1);
        assert_eq!(
            s.windows()[2].counts.arrivals,
            0,
            "gap windows materialise empty"
        );
        assert_eq!(s.windows()[3].counts.arrivals, 1);
    }

    #[test]
    fn horizon_instants_clamp_into_the_last_window() {
        let mut s = WindowSeries::new(
            SimDuration::from_millis(250),
            SimDuration::from_secs(1),
            16,
        );
        // An end-of-run sample at exactly t = horizon belongs to the
        // final window, not a phantom fifth one.
        s.at(at(1_000)).record_utilization(0.5);
        assert_eq!(s.windows().len(), 4);
        assert!(s.windows()[3].utilization_mean() > 0.0);
    }

    #[test]
    fn peak_depth_is_a_running_max() {
        let mut s = WindowSeries::new(
            SimDuration::from_millis(250),
            SimDuration::from_secs(1),
            16,
        );
        s.at(at(10)).note_queue_depth(3);
        s.at(at(20)).note_queue_depth(7);
        s.at(at(30)).note_queue_depth(2);
        assert_eq!(s.windows()[0].queue_depth_peak, 7);
    }

    #[test]
    fn short_horizons_still_have_one_window() {
        let mut s = WindowSeries::new(
            SimDuration::from_millis(250),
            SimDuration::from_millis(100),
            16,
        );
        s.at(at(99)).counts.arrivals += 1;
        assert_eq!(s.windows().len(), 1);
    }
}
