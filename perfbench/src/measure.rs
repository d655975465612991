//! Shared measurement helpers: the metric record, the repetition loop,
//! the host-speed reference, order statistics, the simulated-statistics
//! digest, peak RSS, and the span-time estimate from the profiler's log2
//! histograms.

use sgprs_bench::report::AllocStats;
use sgprs_cluster::PLAN_LATENCY_BINS;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One printed metric: a stable name, its value as measured, and its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `count`, `1/s`, ...).
    pub unit: &'static str,
}

/// Builds a [`Metric`].
#[must_use]
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs `f` until `budget` has elapsed and at least `min_reps` times,
/// returning every result.
pub fn repeat<T>(budget: Duration, min_reps: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    /// Upper bound on repetitions, so tiny inputs cannot spin forever.
    const MAX_REPS: usize = 10_000;
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < MAX_REPS && (out.len() < min_reps || started.elapsed() < budget) {
        out.push(f());
    }
    out
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Items one run of the reference kernel formats and hashes.
const REFERENCE_ITEMS: u64 = 10_000;

/// Host ns one run of the reference kernel takes at the reference speed:
/// about its median on a 2-vCPU Xeon VM shared with other tenants.
pub const REFERENCE_NS: f64 = 2.5e6;

/// How long one reference sample stands for the host's speed.
const RESAMPLE: Duration = Duration::from_millis(50);

/// The reference kernel: kernel-style labels formatted into `String`s and
/// counted in a hash map, the mix of formatting, hashing and small
/// allocations that the simulator's own speed follows most closely. Its
/// hasher has fixed keys, so every run does the same work.
fn reference_kernel() -> usize {
    let mut seen: HashMap<String, (u64, f64), BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for i in 0..REFERENCE_ITEMS {
        let entry = seen
            .entry(format!("τ{}#{}/s{}", i % 37, i / 37, i % 5))
            .or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += (i as f64).sqrt();
    }
    seen.len()
}

/// The host's momentary speed, read from the reference kernel.
///
/// On a shared machine the simulator's speed moves by up to 2× in phases
/// of seconds to minutes, as other tenants load the physical cores; a
/// whole run can fall in a slow phase. The reference kernel slows with it
/// in step, so a time divided by the kernel's time just before it is
/// nearly free of the phase. [`HostSpeed::scale`] turns a host time into
/// seconds at the reference speed, [`REFERENCE_NS`] per kernel run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// When the kernel last ran, and the scale it gave.
    sampled: Option<(Instant, f64)>,
}

impl HostSpeed {
    /// The factor from host seconds measured now to seconds at the
    /// reference speed. Runs the kernel (about 2.5 ms) when the last sample
    /// is older than 50 ms.
    pub fn scale(&mut self) -> f64 {
        match self.sampled {
            Some((at, scale)) if at.elapsed() < RESAMPLE => scale,
            _ => {
                let (_, secs) = timed(|| black_box(reference_kernel()));
                let scale = REFERENCE_NS / (secs * 1e9);
                self.sampled = Some((Instant::now(), scale));
                scale
            }
        }
    }
}

/// Host seconds and heap allocations `f` takes, with its result.
/// Allocations are counted by the `CountingAlloc` global allocator the
/// benchmark binary installs; without it the count reads zero.
pub fn timed_counted<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let before = AllocStats::snapshot();
    let (out, secs) = timed(f);
    let allocs = AllocStats::snapshot().since(&before).allocs;
    (out, secs, allocs)
}

/// The nearest-rank `q` quantile of `values` (`q` in `(0, 1]`): the
/// smallest sample with at least `q·n` samples at or below it. For 240
/// samples, p90 is the 216th, with 24 samples beyond it.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "a quantile needs samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle samples when even).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the simulated statistics of a run. Two runs with equal
/// digests produced the same simulated outcome, so a change meant only
/// to speed the simulator up can show it left behaviour bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Lower edge, in ns, of the profiler's last (overflow) histogram bucket.
pub const OVERFLOW_EDGE_NS: f64 = (1u64 << (PLAN_LATENCY_BINS - 1)) as f64;

/// Estimated host seconds of one span from its log2 histogram. A call in
/// bucket `i` (`[2^i, 2^(i+1))` ns) counts as `1.5·2^i` ns, which is
/// within a factor 1.5 of its true length; a call in the overflow bucket
/// (≥ 2^15 ns ≈ 32.8 µs) counts as 2^15 ns, a lower bound.
#[must_use]
pub fn span_estimate_s(hist: &[u64; PLAN_LATENCY_BINS]) -> f64 {
    let ns: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &calls)| {
            let per_call = if i + 1 == PLAN_LATENCY_BINS {
                OVERFLOW_EDGE_NS
            } else {
                1.5 * (1u64 << i) as f64
            };
            calls as f64 * per_call
        })
        .sum();
    ns / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p90_leaves_a_tenth_beyond() {
        let values: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.9), 216.0);
        assert_eq!(quantile(&values, 0.5), 120.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn span_estimate_uses_bucket_midpoints_and_the_overflow_edge() {
        let mut hist = [0u64; PLAN_LATENCY_BINS];
        hist[10] = 2; // 2 × 1536 ns
        hist[PLAN_LATENCY_BINS - 1] = 1; // 32768 ns
        let want = (2.0 * 1536.0 + 32768.0) / 1e9;
        assert!((span_estimate_s(&hist) - want).abs() < 1e-15);
    }

    #[test]
    fn host_speed_reuses_a_fresh_sample() {
        let mut speed = HostSpeed::default();
        let first = speed.scale();
        assert!(first.is_finite() && first > 0.0);
        assert_eq!(speed.scale(), first);
    }

    #[test]
    fn digest_depends_on_every_value() {
        let mut a = Digest::default();
        a.u64(1);
        a.f64(0.5);
        let mut b = Digest::default();
        b.u64(1);
        b.f64(0.25);
        assert_ne!(a.value(), b.value());
    }
}
