//! Classic schedulability analysis used to sanity-check workloads.
//!
//! The experiment harness uses these results to (a) predict where the
//! pivot point *should* fall for an ideal fluid scheduler and (b) verify
//! that generated task sets are feasible/infeasible by construction.

use crate::{SimDuration, TaskSet};

/// Greatest common divisor (Euclid).
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple, saturating on overflow.
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).saturating_mul(b)
}

/// The hyperperiod (LCM of all periods) of a task set, saturating.
///
/// Returns [`SimDuration::ZERO`] for an empty set.
#[must_use]
pub fn hyperperiod(set: &TaskSet) -> SimDuration {
    let mut h = 0u64;
    for (_, t) in set.iter() {
        let p = t.period.as_nanos();
        h = if h == 0 { p } else { lcm(h, p) };
    }
    SimDuration::from_nanos(h)
}

/// Liu & Layland's rate-monotonic utilisation bound `n(2^{1/n} − 1)`.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// EDF feasibility on `m` unit-speed processors via the density bound:
/// a task set is schedulable by global EDF-like policies only if its total
/// density does not exceed `m` (necessary condition shown here).
#[must_use]
pub fn density_feasible(set: &TaskSet, processors: f64) -> bool {
    set.total_density() <= processors + 1e-9
}

/// The EDF demand bound function for implicit/constrained-deadline periodic
/// tasks: cumulative execution demand of jobs with both release and
/// deadline inside any window of length `t`.
#[must_use]
pub fn demand_bound(set: &TaskSet, t: SimDuration) -> SimDuration {
    let t_ns = t.as_nanos();
    let mut demand = 0u64;
    for (_, task) in set.iter() {
        let d = task.deadline.as_nanos();
        let p = task.period.as_nanos();
        if t_ns >= d && p > 0 {
            let jobs = (t_ns - d) / p + 1;
            demand = demand.saturating_add(jobs.saturating_mul(task.wcet.as_nanos()));
        }
    }
    SimDuration::from_nanos(demand)
}

/// Processor-demand criterion for uniprocessor EDF: checks
/// `dbf(t) ≤ t` at every deadline up to `min(hyperperiod, horizon)`.
///
/// This is exact for constrained-deadline periodic task sets on one
/// processor; the harness uses it with a scaled-capacity processor to
/// approximate a fluid GPU partition.
#[must_use]
pub fn edf_processor_demand_ok(set: &TaskSet, horizon: SimDuration) -> bool {
    if set.is_empty() {
        return true;
    }
    if set.total_utilization() > 1.0 + 1e-9 {
        return false;
    }
    let limit = hyperperiod(set).min(horizon).as_nanos();
    // Collect all absolute deadlines within the window.
    let mut checkpoints: Vec<u64> = Vec::new();
    for (_, task) in set.iter() {
        let d = task.deadline.as_nanos();
        let p = task.period.as_nanos();
        let mut t = d;
        while t <= limit {
            checkpoints.push(t);
            match t.checked_add(p) {
                Some(next) => t = next,
                None => break,
            }
        }
    }
    checkpoints.sort_unstable();
    checkpoints.dedup();
    checkpoints
        .into_iter()
        .all(|t| demand_bound(set, SimDuration::from_nanos(t)).as_nanos() <= t)
}

/// Exact response-time analysis for fixed-priority preemptive scheduling
/// on one processor, with tasks prioritised in the given order (index 0 =
/// highest). Returns the worst-case response time of every task, or
/// `None` if some task's response exceeds its deadline (unschedulable).
///
/// Classic recurrence (Joseph & Pandya): `R = C + Σ_{hp} ⌈R/T_j⌉·C_j`,
/// iterated to the fixed point.
#[must_use]
pub fn response_times_fixed_priority(set: &TaskSet) -> Option<Vec<SimDuration>> {
    let tasks: Vec<_> = set.iter().map(|(_, t)| t).collect();
    let mut responses = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let c = task.wcet.as_nanos() as u128;
        let d = task.deadline.as_nanos() as u128;
        let mut r: u128 = c;
        loop {
            let mut interference: u128 = 0;
            for hp in tasks.iter().take(i) {
                let t_j = hp.period.as_nanos() as u128;
                let c_j = hp.wcet.as_nanos() as u128;
                interference += r.div_ceil(t_j) * c_j;
            }
            let next = c + interference;
            if next > d {
                return None;
            }
            if next == r {
                break;
            }
            r = next;
        }
        responses.push(SimDuration::from_nanos(r as u64));
    }
    Some(responses)
}

/// Sorts a task set into rate-monotonic priority order (shorter period =
/// higher priority), returning the reordered set.
#[must_use]
pub fn rate_monotonic_order(set: &TaskSet) -> TaskSet {
    let mut tasks: Vec<_> = set.iter().map(|(_, t)| t.clone()).collect();
    tasks.sort_by_key(|t| t.period);
    tasks.into_iter().collect()
}

/// Upper bound on sustainable frames per second for a fluid processor of
/// `capacity` (relative to the WCET's reference speed): each job consumes
/// `wcet` of capacity-1 time, so throughput ≤ `capacity / wcet`.
#[must_use]
pub fn fluid_fps_bound(wcet: SimDuration, capacity: f64) -> f64 {
    if wcet.is_zero() || capacity <= 0.0 {
        return 0.0;
    }
    capacity / wcet.as_secs_f64()
}

/// Predicts the fluid pivot point: the largest task count `n` such that
/// `n` tasks at `fps` frames per second each stay within `capacity`.
#[must_use]
pub fn fluid_pivot(wcet: SimDuration, fps: f64, capacity: f64) -> usize {
    if fps <= 0.0 {
        return 0;
    }
    (fluid_fps_bound(wcet, capacity) / fps).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeriodicTaskSpec;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn simple_set(n: usize, period_ms: u64, wcet_ms: u64) -> TaskSet {
        (0..n)
            .map(|i| {
                PeriodicTaskSpec::builder(format!("t{i}"))
                    .period(ms(period_ms))
                    .wcet(ms(wcet_ms))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(u64::MAX, 2), u64::MAX, "saturates");
    }

    #[test]
    fn hyperperiod_of_identical_periods_is_the_period() {
        let set = simple_set(5, 33, 1);
        assert_eq!(hyperperiod(&set), ms(33));
    }

    #[test]
    fn hyperperiod_of_coprime_periods_multiplies() {
        let mut set = TaskSet::new();
        set.push(
            PeriodicTaskSpec::builder("a")
                .period(ms(3))
                .wcet(ms(1))
                .build()
                .unwrap(),
        );
        set.push(
            PeriodicTaskSpec::builder("b")
                .period(ms(5))
                .wcet(ms(1))
                .build()
                .unwrap(),
        );
        assert_eq!(hyperperiod(&set), ms(15));
    }

    #[test]
    fn liu_layland_matches_known_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
        // n → ∞ converges to ln 2.
        assert!((liu_layland_bound(10_000) - core::f64::consts::LN_2).abs() < 1e-4);
        assert_eq!(liu_layland_bound(0), 0.0);
    }

    #[test]
    fn demand_bound_counts_whole_jobs() {
        let set = simple_set(1, 10, 3);
        assert_eq!(demand_bound(&set, ms(9)), ms(0));
        assert_eq!(demand_bound(&set, ms(10)), ms(3));
        assert_eq!(demand_bound(&set, ms(20)), ms(6));
        assert_eq!(demand_bound(&set, ms(25)), ms(6));
    }

    #[test]
    fn pdc_accepts_feasible_and_rejects_overloaded() {
        let feasible = simple_set(3, 30, 9); // U = 0.9
        assert!(edf_processor_demand_ok(&feasible, ms(1_000)));
        let overloaded = simple_set(4, 30, 9); // U = 1.2
        assert!(!edf_processor_demand_ok(&overloaded, ms(1_000)));
    }

    #[test]
    fn pdc_exactly_full_is_feasible() {
        let exact = simple_set(3, 30, 10); // U = 1.0
        assert!(edf_processor_demand_ok(&exact, ms(1_000)));
    }

    #[test]
    fn density_feasibility_scales_with_processors() {
        let set = simple_set(6, 30, 10); // density 2.0
        assert!(!density_feasible(&set, 1.0));
        assert!(density_feasible(&set, 2.0));
        assert!(density_feasible(&set, 3.0));
    }

    #[test]
    fn fluid_bounds_predict_pivot() {
        // 10 ms jobs on capacity 8 ⇒ 800 fps; at 30 fps per task ⇒ 26 tasks.
        let fps = fluid_fps_bound(ms(10), 8.0);
        assert!((fps - 800.0).abs() < 1e-6);
        assert_eq!(fluid_pivot(ms(10), 30.0, 8.0), 26);
        assert_eq!(fluid_pivot(SimDuration::ZERO, 30.0, 8.0), 0);
    }

    #[test]
    fn empty_set_is_trivially_schedulable() {
        let set = TaskSet::new();
        assert!(edf_processor_demand_ok(&set, ms(100)));
        assert_eq!(hyperperiod(&set), SimDuration::ZERO);
    }

    fn named(period_ms: u64, wcet_ms: u64) -> PeriodicTaskSpec {
        PeriodicTaskSpec::builder("t")
            .period(ms(period_ms))
            .wcet(ms(wcet_ms))
            .build()
            .unwrap()
    }

    #[test]
    fn rta_matches_textbook_example() {
        // Classic: T1=(C=1,T=4), T2=(C=2,T=6), T3=(C=3,T=13), RM order.
        // R1 = 1; R2 = 2 + ceil(R2/4)*1 → 3; R3 = 3 + interference → 10.
        let mut set = TaskSet::new();
        set.push(named(4, 1));
        set.push(named(6, 2));
        set.push(named(13, 3));
        let r = response_times_fixed_priority(&set).expect("schedulable");
        assert_eq!(r[0], ms(1));
        assert_eq!(r[1], ms(3));
        assert_eq!(r[2], ms(10));
    }

    #[test]
    fn rta_detects_unschedulable_sets() {
        let mut set = TaskSet::new();
        set.push(named(4, 3));
        set.push(named(5, 3)); // utilisation 1.35, lower task can never fit
        assert!(response_times_fixed_priority(&set).is_none());
    }

    #[test]
    fn rta_highest_priority_response_is_its_wcet() {
        let mut set = TaskSet::new();
        set.push(named(10, 7));
        let r = response_times_fixed_priority(&set).unwrap();
        assert_eq!(r[0], ms(7));
    }

    #[test]
    fn rate_monotonic_order_sorts_by_period() {
        let mut set = TaskSet::new();
        set.push(named(30, 1));
        set.push(named(10, 1));
        set.push(named(20, 1));
        let rm = rate_monotonic_order(&set);
        let periods: Vec<u64> = rm.iter().map(|(_, t)| t.period.as_millis()).collect();
        assert_eq!(periods, vec![10, 20, 30]);
    }

    #[test]
    fn rta_agrees_with_liu_layland_at_the_bound() {
        // Any set under the Liu-Layland bound must pass RTA in RM order.
        let mut set = TaskSet::new();
        set.push(named(10, 2));
        set.push(named(15, 3));
        set.push(named(35, 5)); // U ≈ 0.543 < 0.78
        assert!(set.total_utilization() < liu_layland_bound(3));
        assert!(response_times_fixed_priority(&rate_monotonic_order(&set)).is_some());
    }
}
