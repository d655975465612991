//! Tenant churn: arrivals and departures over simulated time.
//!
//! The paper's headline property is the *zero-configuration partition
//! switch* — the thing that makes churn cheap. This module generates the
//! churn itself: a deterministic trace of arrival/departure events a
//! [`crate::Fleet`] replays. Traces can be hand-built (tests) or drawn
//! from a seeded generator with exponential-ish inter-arrival gaps and
//! bounded lifetimes.

use crate::{ModelKind, TenantSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sgprs_rt::{SimDuration, SimTime};

/// One churn event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A tenant asks to be served.
    Arrival(TenantSpec),
    /// The named tenant leaves the fleet.
    Departure(String),
}

/// A time-ordered churn trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    events: Vec<(SimTime, ChurnEvent)>,
}

/// Parameters of the seeded churn generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean gap between tenant arrivals.
    pub mean_interarrival: SimDuration,
    /// Minimum tenant lifetime; actual lifetimes are drawn from
    /// `[min_lifetime, max_lifetime]`.
    pub min_lifetime: SimDuration,
    /// Maximum tenant lifetime. Tenants whose lifetime extends past the
    /// trace horizon simply never depart.
    pub max_lifetime: SimDuration,
    /// The model mix arrivals cycle through, with weights (a skewed mix
    /// models a fleet dominated by one architecture).
    pub mix: Vec<(ModelKind, u32)>,
    /// Frame rate of every arriving tenant.
    pub fps: f64,
    /// Stage count of every arriving tenant.
    pub stages: usize,
    /// Re-pricing ladder stamped on every arriving tenant (degraded fps
    /// steps, strictly descending; see [`TenantSpec::fps_ladder`]).
    /// Empty by default: tenants opt out of re-pricing.
    pub fps_ladder: Vec<f64>,
    /// Queue patience stamped on every arriving tenant (see
    /// [`TenantSpec::max_wait`]). `None` (the default) waits forever.
    pub max_wait: Option<SimDuration>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mean_interarrival: SimDuration::from_millis(200),
            min_lifetime: SimDuration::from_secs(1),
            max_lifetime: SimDuration::from_secs(8),
            mix: vec![(ModelKind::ResNet18, 1)],
            fps: 30.0,
            stages: 6,
            fps_ladder: Vec::new(),
            max_wait: None,
        }
    }
}

impl ChurnTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChurnTrace::default()
    }

    /// Appends an event, keeping the trace time-ordered on finish.
    pub fn push(&mut self, at: SimTime, event: ChurnEvent) {
        self.events.push((at, event));
    }

    /// All events in time order (stable for equal instants: arrivals
    /// keep their insertion order).
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<(SimTime, ChurnEvent)> {
        self.events.sort_by_key(|(t, _)| *t);
        self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A trace where `n` tenants all arrive at time zero and never leave
    /// (the paper's static-population setup).
    #[must_use]
    pub fn static_population(tenants: impl IntoIterator<Item = TenantSpec>) -> Self {
        let mut trace = ChurnTrace::new();
        for t in tenants {
            trace.push(SimTime::ZERO, ChurnEvent::Arrival(t));
        }
        trace
    }

    /// Generates a seeded churn trace over `[0, horizon)`.
    ///
    /// Inter-arrival gaps are exponential with the configured mean
    /// (inverse-CDF of a uniform draw); lifetimes are uniform in the
    /// configured band; models are drawn from the weighted mix. The same
    /// `(config, horizon, seed)` triple always yields the same trace —
    /// and the same event sequence as the lazy
    /// [`crate::ArrivalStream::generate`], which pulls from the same
    /// [`ChurnSampler`].
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or all weights are zero.
    #[must_use]
    pub fn generate(cfg: &ChurnConfig, horizon: SimDuration, seed: u64) -> Self {
        let mut sampler = ChurnSampler::new(cfg, horizon, seed);
        let mut trace = ChurnTrace::new();
        while let Some(arrival) = sampler.next_arrival() {
            // Arrival first: with a zero lifetime the two events share an
            // instant, and the stable sort must keep arrival ahead.
            let name = arrival.tenant.name.clone();
            trace.push(arrival.at, ChurnEvent::Arrival(arrival.tenant));
            if let Some(departure) = arrival.departure {
                trace.push(departure, ChurnEvent::Departure(name));
            }
        }
        trace
    }
}

/// One sampled arrival: the tenant, its instant, and — when it falls
/// inside the horizon — its departure instant.
#[derive(Debug, Clone)]
pub(crate) struct SampledArrival {
    /// The arrival instant.
    pub(crate) at: SimTime,
    /// The arriving tenant.
    pub(crate) tenant: TenantSpec,
    /// The departure instant, `None` when the drawn lifetime extends
    /// past the horizon (the tenant simply never departs).
    pub(crate) departure: Option<SimTime>,
}

/// The seeded churn draw shared by the materialised
/// [`ChurnTrace::generate`] and the lazy [`crate::ArrivalStream`]: one
/// definition of the RNG draw order, so the two paths cannot drift.
///
/// Per arrival the draws are, in order: the uniform behind the
/// exponential gap, the weighted model pick, and (when the lifetime band
/// is non-degenerate) the lifetime. Lifetimes are uniform over the
/// documented **inclusive** band `[min_lifetime, max_lifetime]` — the
/// pre-stream generator drew `0..band` (exclusive), silently making
/// `max_lifetime` unreachable; traces generated for the same seed before
/// that fix differ in their departure instants (arrival instants and
/// specs are unchanged: the draw count per arrival is identical).
#[derive(Debug, Clone)]
pub(crate) struct ChurnSampler {
    cfg: ChurnConfig,
    horizon: SimDuration,
    rng: SmallRng,
    total_weight: u32,
    t: SimTime,
    serial: usize,
    done: bool,
}

impl ChurnSampler {
    /// A sampler over `[0, horizon)` for `(cfg, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, all weights are zero, or the mean
    /// inter-arrival gap is zero.
    pub(crate) fn new(cfg: &ChurnConfig, horizon: SimDuration, seed: u64) -> Self {
        assert!(!cfg.mix.is_empty(), "churn mix cannot be empty");
        assert!(
            !cfg.mean_interarrival.is_zero(),
            "mean inter-arrival must be positive (zero would never advance time)"
        );
        let total_weight: u32 = cfg.mix.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0, "churn mix weights cannot all be zero");
        ChurnSampler {
            cfg: cfg.clone(),
            horizon,
            rng: SmallRng::seed_from_u64(seed),
            total_weight,
            t: SimTime::ZERO,
            serial: 0,
            done: false,
        }
    }

    /// Draws the next arrival, or `None` once the gap carries past the
    /// horizon (after which the sampler stays exhausted).
    pub(crate) fn next_arrival(&mut self) -> Option<SampledArrival> {
        if self.done {
            return None;
        }
        // Exponential gap via inverse CDF; clamp the uniform away
        // from 0 so ln stays finite.
        let u: f64 = self.rng.random_range(1e-12..1.0);
        let gap = self.cfg.mean_interarrival.mul_f64(-u.ln());
        self.t += gap;
        if self.t.duration_since(SimTime::ZERO) >= self.horizon {
            self.done = true;
            return None;
        }
        let mut pick = self.rng.random_range(0..u64::from(self.total_weight)) as u32;
        let model = self
            .cfg
            .mix
            .iter()
            .find(|&&(_, w)| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map_or(self.cfg.mix[0].0, |&(m, _)| m);
        let mut tenant = TenantSpec::new(
            format!("{}-{}", model.name(), self.serial),
            model,
            self.cfg.fps,
        )
        .with_stages(self.cfg.stages)
        .with_fps_ladder(self.cfg.fps_ladder.clone());
        tenant.max_wait = self.cfg.max_wait;
        self.serial += 1;
        let lifetime_band = self
            .cfg
            .max_lifetime
            .saturating_sub(self.cfg.min_lifetime)
            .as_nanos();
        // Inclusive draw over the documented [min, max] band; a
        // degenerate band draws nothing, preserving the per-arrival
        // draw count of earlier generators.
        let lifetime = self.cfg.min_lifetime
            + SimDuration::from_nanos(if lifetime_band == 0 {
                0
            } else {
                self.rng.random_range(0..=lifetime_band)
            });
        let departure = self.t + lifetime;
        let departs = departure.duration_since(SimTime::ZERO) < self.horizon;
        Some(SampledArrival {
            at: self.t,
            tenant,
            departure: departs.then_some(departure),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ChurnConfig::default();
        let h = SimDuration::from_secs(5);
        assert_eq!(
            ChurnTrace::generate(&cfg, h, 1),
            ChurnTrace::generate(&cfg, h, 1)
        );
        assert_ne!(
            ChurnTrace::generate(&cfg, h, 1),
            ChurnTrace::generate(&cfg, h, 2)
        );
    }

    #[test]
    fn events_sort_and_pair_up() {
        let cfg = ChurnConfig::default();
        let trace = ChurnTrace::generate(&cfg, SimDuration::from_secs(10), 42);
        assert!(!trace.is_empty());
        let events = trace.into_sorted();
        let mut alive = std::collections::HashSet::new();
        let mut last = SimTime::ZERO;
        for (t, e) in &events {
            assert!(*t >= last, "time-ordered");
            last = *t;
            match e {
                ChurnEvent::Arrival(spec) => {
                    assert!(alive.insert(spec.name.clone()), "unique names");
                }
                ChurnEvent::Departure(name) => {
                    assert!(alive.remove(name), "departures follow arrivals: {name}");
                }
            }
        }
    }

    #[test]
    fn mean_interarrival_controls_volume() {
        let fast = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(50),
            ..ChurnConfig::default()
        };
        let slow = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(800),
            ..ChurnConfig::default()
        };
        let h = SimDuration::from_secs(20);
        let n_fast = ChurnTrace::generate(&fast, h, 7)
            .into_sorted()
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Arrival(_)))
            .count();
        let n_slow = ChurnTrace::generate(&slow, h, 7)
            .into_sorted()
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Arrival(_)))
            .count();
        assert!(n_fast > n_slow * 4, "fast {n_fast} vs slow {n_slow}");
    }

    #[test]
    fn skewed_mixes_draw_mostly_the_heavy_model() {
        let cfg = ChurnConfig {
            mix: vec![(ModelKind::Vgg16, 9), (ModelKind::MobileNet, 1)],
            ..ChurnConfig::default()
        };
        let events = ChurnTrace::generate(&cfg, SimDuration::from_secs(30), 3).into_sorted();
        let (mut heavy, mut light) = (0usize, 0usize);
        for (_, e) in &events {
            if let ChurnEvent::Arrival(t) = e {
                match t.model {
                    ModelKind::Vgg16 => heavy += 1,
                    ModelKind::MobileNet => light += 1,
                    _ => panic!("model outside the mix"),
                }
            }
        }
        assert!(heavy > light * 3, "skew holds: {heavy} vs {light}");
    }

    #[test]
    fn lifetime_band_is_inclusive_of_both_endpoints() {
        // A two-value band (min, min + 1 ns) makes both endpoints likely
        // enough that a few hundred arrivals must hit each — pinning the
        // inclusive-draw fix: the old exclusive `0..band` draw could
        // never produce `max_lifetime`.
        let min = SimDuration::from_secs(1);
        let max = min + SimDuration::from_nanos(1);
        let cfg = ChurnConfig {
            mean_interarrival: SimDuration::from_millis(20),
            min_lifetime: min,
            max_lifetime: max,
            ..ChurnConfig::default()
        };
        let horizon = SimDuration::from_secs(30);
        let events = ChurnTrace::generate(&cfg, horizon, 11).into_sorted();
        let mut arrivals: std::collections::HashMap<String, SimTime> =
            std::collections::HashMap::new();
        let (mut hit_min, mut hit_max) = (false, false);
        for (t, e) in &events {
            match e {
                ChurnEvent::Arrival(spec) => {
                    arrivals.insert(spec.name.clone(), *t);
                }
                ChurnEvent::Departure(name) => {
                    let arrived = arrivals[name];
                    let lifetime = t.duration_since(arrived);
                    assert!(
                        lifetime == min || lifetime == max,
                        "lifetime {lifetime:?} outside the two-value band"
                    );
                    hit_min |= lifetime == min;
                    hit_max |= lifetime == max;
                }
            }
        }
        assert!(hit_min, "min_lifetime endpoint reachable");
        assert!(hit_max, "max_lifetime endpoint reachable");
    }

    #[test]
    fn static_population_arrives_at_zero() {
        let tenants = (0..4).map(|i| TenantSpec::new(format!("t{i}"), ModelKind::ResNet18, 30.0));
        let events = ChurnTrace::static_population(tenants).into_sorted();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|(t, _)| *t == SimTime::ZERO));
    }
}
