//! Fleet scenarios: multi-GPU serving experiments over `sgprs-cluster`.
//!
//! Where [`crate::ScenarioSpec`] reproduces the paper's single-GPU
//! figures, a [`FleetScenario`] drives a whole fleet: heterogeneous SM
//! counts, skewed tenant mixes, and arrival/departure churn — the
//! deployment the paper's introduction motivates but never measures.

use serde::{Deserialize, Serialize};
use sgprs_cluster::{
    ArrivalStream, ChurnConfig, ChurnEvent, ChurnTrace, Fleet, FleetConfig, FleetMetrics,
    ModelKind, NodeSpec, PlacementPolicy, QueuePolicy, ShardRouter, TenantSpec,
};
use sgprs_core::SchedulerKind;
use sgprs_gpu_sim::{GpuSpec, DEFAULT_SEED};
use sgprs_rt::{SimDuration, SimTime};

/// How a fleet scenario generates its tenant population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TenantLoad {
    /// `n` identical tenants (the paper's setup, scaled out), all present
    /// from time zero.
    Static {
        /// Number of tenants.
        n: usize,
        /// Model every tenant serves.
        model: ModelKind,
        /// Common frame rate.
        fps: f64,
    },
    /// Seeded churn: tenants arrive and depart over the run.
    Churn(ChurnConfig),
    /// Metro-scale traffic: seeded base churn with periodic synchronized
    /// arrival *bursts* superimposed (rush-hour waves of camera feeds
    /// landing at once — the pattern that stresses O(1) routing).
    Metro {
        /// The steady base churn.
        base: ChurnConfig,
        /// Gap between burst waves.
        burst_every: SimDuration,
        /// Tenants per burst wave (they inherit the base churn's model
        /// mix head, fps, ladder, and patience, and depart after the
        /// base churn's maximum lifetime).
        burst_size: usize,
    },
}

/// One fleet experiment: nodes, placement policy, and offered load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Scenario label for reports.
    pub label: String,
    /// The fleet's nodes.
    pub nodes: Vec<NodeSpec>,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Offered load.
    pub load: TenantLoad,
    /// Simulated run length.
    pub sim: SimDuration,
    /// Jitter/churn seed.
    pub seed: u64,
    /// Two-level sharded dispatch: nodes per shard (`None` = flat
    /// O(nodes) placement scan).
    pub sharding: Option<usize>,
    /// First-level routing strategy when sharding is on:
    /// [`ShardRouter::Scan`] orders every shard (the classic default),
    /// [`ShardRouter::P2c`] probes two — O(1) in the shard count.
    pub shard_router: ShardRouter,
    /// Wait-queue retry order (FIFO is the default and the classic
    /// fleet semantics).
    pub queue_policy: QueuePolicy,
    /// Enable the fps re-pricing ladder (admit degraded instead of
    /// rejecting, upgrade back as capacity frees).
    pub repricing: bool,
    /// DMR threshold enabling migration off overloaded nodes
    /// (`None` = migration off).
    pub migration: Option<f64>,
    /// Overrides the admission utilisation bound (`None` keeps the
    /// default 0.9). Values at or above 1.0 deliberately admit past the
    /// fluid headroom — the overload regime migration studies need.
    pub admission_bound: Option<f64>,
    /// Run the fleet in event-driven mode ([`Fleet::run_events`]): fluid
    /// nodes, migration at any release, and the migration stall cost
    /// model. Off = the epoch path, whose nodes run the paper's
    /// schedulers and migrate for free at epoch boundaries.
    pub event_driven: bool,
    /// Telemetry window (`None` = telemetry off, the zero-cost
    /// default). `Some(w)` enables windowed time-series and quantile
    /// sketches at interval `w`, bumping the export to schema v3
    /// without changing a single simulation decision.
    pub telemetry: Option<SimDuration>,
}

impl FleetScenario {
    /// The shared scenario skeleton: least-utilisation placement, the
    /// reference seed, flat dispatch, FIFO queueing, and every optional
    /// knob off. Constructors customise on top via struct update, so a
    /// new knob is added (and defaulted) in exactly one place.
    fn base(label: String, nodes: Vec<NodeSpec>, load: TenantLoad, sim_secs: u64) -> Self {
        FleetScenario {
            label,
            nodes,
            placement: PlacementPolicy::LeastUtilization,
            load,
            sim: SimDuration::from_secs(sim_secs),
            seed: DEFAULT_SEED,
            sharding: None,
            shard_router: ShardRouter::Scan,
            queue_policy: QueuePolicy::Fifo,
            repricing: false,
            migration: None,
            admission_bound: None,
            event_driven: false,
            telemetry: None,
        }
    }

    /// A homogeneous fleet of `n_nodes` paper GPUs (RTX 2080 Ti, SGPRS at
    /// `np = 3`, `os = 1.5`) serving `tenants` identical ResNet18 feeds
    /// at the paper's 30 fps.
    #[must_use]
    pub fn homogeneous(n_nodes: usize, tenants: usize, sim_secs: u64) -> Self {
        let nodes = (0..n_nodes)
            .map(|i| NodeSpec::sgprs(format!("gpu{i}"), GpuSpec::rtx_2080_ti()))
            .collect();
        FleetScenario::base(
            format!("homogeneous x{n_nodes} ({tenants} tenants)"),
            nodes,
            TenantLoad::Static {
                n: tenants,
                model: ModelKind::ResNet18,
                fps: crate::PAPER_FPS,
            },
            sim_secs,
        )
    }

    /// A heterogeneous four-GPU fleet — a full 2080 Ti plus 46-, 34-, and
    /// 23-SM devices — under churn with a skewed model mix (70 % ResNet18,
    /// 20 % MobileNet, 10 % ResNet34). The heavy tail is ResNet34 rather
    /// than VGG-16: at the paper's 30 fps a VGG-16 inference cannot meet
    /// its period on any node, so admission (correctly) never places it.
    #[must_use]
    pub fn heterogeneous_churn(sim_secs: u64) -> Self {
        FleetScenario::base(
            "heterogeneous x4 + churn".into(),
            heterogeneous_nodes(),
            TenantLoad::Churn(ChurnConfig {
                mean_interarrival: SimDuration::from_millis(250),
                min_lifetime: SimDuration::from_secs(2),
                max_lifetime: SimDuration::from_secs(10),
                mix: vec![
                    (ModelKind::ResNet18, 7),
                    (ModelKind::MobileNet, 2),
                    (ModelKind::ResNet34, 1),
                ],
                fps: crate::PAPER_FPS,
                stages: crate::PAPER_STAGES,
                ..ChurnConfig::default()
            }),
            sim_secs,
        )
    }

    /// A scale-out fleet of `n_nodes` (the 64–256 node regime where flat
    /// dispatch stops scaling): repeating 68/46/34-SM devices under brisk
    /// churn whose arrival rate grows with the fleet, dispatched through
    /// 8-node shards. Set [`FleetScenario::sharding`] to `None` for the
    /// flat-dispatch baseline.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn scale_out(n_nodes: usize, sim_secs: u64) -> Self {
        assert!(n_nodes > 0, "a scale-out fleet needs nodes");
        let sizes = [68u32, 46, 34];
        let nodes = (0..n_nodes)
            .map(|i| {
                let sm = sizes[i % sizes.len()];
                let gpu = if sm == 68 {
                    GpuSpec::rtx_2080_ti()
                } else {
                    GpuSpec::synthetic(sm)
                };
                NodeSpec::sgprs(format!("gpu{i}-{sm}sm"), gpu)
            })
            .collect();
        // Offered load tracks fleet size: ~2 arrivals per node per
        // second keeps admission under pressure at every scale.
        let mean_interarrival =
            SimDuration::from_nanos((500_000_000 / n_nodes as u64).max(1_000_000));
        FleetScenario {
            sharding: Some(8),
            ..FleetScenario::base(
                format!("scale-out x{n_nodes} + churn [sharded/8]"),
                nodes,
                TenantLoad::Churn(ChurnConfig {
                    mean_interarrival,
                    min_lifetime: SimDuration::from_secs(2),
                    max_lifetime: SimDuration::from_secs(12),
                    mix: vec![
                        (ModelKind::ResNet18, 6),
                        (ModelKind::MobileNet, 3),
                        (ModelKind::ResNet34, 1),
                    ],
                    fps: crate::PAPER_FPS,
                    stages: crate::PAPER_STAGES,
                    ..ChurnConfig::default()
                }),
                sim_secs,
            )
        }
    }

    /// A metro-scale fleet: `n_nodes` heterogeneous devices (cycling
    /// 68/46/34/23-SM sizes) behind power-of-two-choices routing over
    /// 8-node shards — the 512–1024-node regime where even the ordered
    /// O(shards) scan becomes the arrival bottleneck. Load is
    /// [`TenantLoad::Metro`]: brisk base churn whose arrival rate grows
    /// with the fleet (≈ one arrival per node per two seconds, lifetimes
    /// 2–10 s) plus a synchronized burst wave of `n_nodes / 4` extra
    /// feeds every two seconds — rush-hour traffic that lands on the
    /// dispatcher at one instant. Every tenant carries a
    /// 24/15/10 fps re-pricing ladder and two seconds of queue patience;
    /// the queue drains earliest-deadline-first with re-pricing armed, so
    /// bursts degrade gracefully instead of rejecting. Runs in either
    /// engine (`with_event_driven` for the event core).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn metro_scale(n_nodes: usize, sim_secs: u64) -> Self {
        assert!(n_nodes > 0, "a metro fleet needs nodes");
        let sizes = [68u32, 46, 34, 23];
        let nodes = (0..n_nodes)
            .map(|i| {
                let sm = sizes[i % sizes.len()];
                let gpu = if sm == 68 {
                    GpuSpec::rtx_2080_ti()
                } else {
                    GpuSpec::synthetic(sm)
                };
                NodeSpec::sgprs(format!("gpu{i}-{sm}sm"), gpu)
            })
            .collect();
        // ≈ n/2 arrivals per second: the steady-state population settles
        // around 2–3 tenants per node, keeping every epoch busy without
        // drowning the simulation.
        let mean_interarrival =
            SimDuration::from_nanos((2_000_000_000 / n_nodes as u64).max(1_000_000));
        let base = ChurnConfig {
            mean_interarrival,
            min_lifetime: SimDuration::from_secs(2),
            max_lifetime: SimDuration::from_secs(10),
            mix: vec![
                (ModelKind::ResNet18, 6),
                (ModelKind::MobileNet, 3),
                (ModelKind::ResNet34, 1),
            ],
            fps: crate::PAPER_FPS,
            stages: crate::PAPER_STAGES,
            fps_ladder: vec![24.0, 15.0, 10.0],
            max_wait: Some(SimDuration::from_secs(2)),
        };
        FleetScenario {
            sharding: Some(8),
            shard_router: ShardRouter::P2c,
            queue_policy: QueuePolicy::EarliestDeadline,
            repricing: true,
            ..FleetScenario::base(
                format!("metro-scale x{n_nodes} churn+bursts [p2c/8]"),
                nodes,
                TenantLoad::Metro {
                    base,
                    burst_every: SimDuration::from_secs(2),
                    burst_size: (n_nodes / 4).max(1),
                },
                sim_secs,
            )
        }
    }

    /// An overload burst over a small heterogeneous fleet: arrivals come
    /// several times faster than the two nodes can absorb, every tenant
    /// carries a 30→24→15→10 fps re-pricing ladder and a two-second
    /// queue patience, and lifetimes are short enough that capacity keeps
    /// freeing (so upgrades happen). The constructor returns the
    /// *FIFO-reject baseline* (ladder and patience present but unused:
    /// re-pricing off, FIFO order); contrast it with
    /// `.with_queue(QueuePolicy::EarliestDeadline, true)`, which serves
    /// the same trace with deadline-aware ordering and the ladder armed —
    /// the regime where SGPRS's zero-cost partition switch pays off as a
    /// strictly lower eventual rejection rate.
    #[must_use]
    pub fn overload_burst(sim_secs: u64) -> Self {
        FleetScenario::base(
            "overload burst x2".into(),
            vec![
                NodeSpec::sgprs("gpu0-68sm", GpuSpec::rtx_2080_ti()),
                NodeSpec::sgprs("gpu1-34sm", GpuSpec::synthetic(34)),
            ],
            TenantLoad::Churn(ChurnConfig {
                mean_interarrival: SimDuration::from_millis(50),
                min_lifetime: SimDuration::from_secs(2),
                max_lifetime: SimDuration::from_secs(5),
                mix: vec![(ModelKind::ResNet18, 8), (ModelKind::MobileNet, 2)],
                fps: crate::PAPER_FPS,
                stages: crate::PAPER_STAGES,
                fps_ladder: vec![24.0, 15.0, 10.0],
                max_wait: Some(SimDuration::from_secs(2)),
            }),
            sim_secs,
        )
    }

    /// The event-vs-epoch contrast: three paper GPUs, one of them
    /// running the naive partitioner, admission deliberately at the full
    /// fluid bound (1.0), and a static population heavy enough that the
    /// naive node — whose sequential execution and partition-switch tax
    /// admission cannot see — runs hot while the SGPRS nodes keep
    /// headroom. With migration armed, the epoch path sheds load once
    /// per epoch boundary, for free, while the event-driven variant
    /// ([`FleetScenario::with_event_driven`]) migrates at the exact
    /// job-release boundary that crossed the threshold and pays the
    /// explicit state-transfer stall — same trace, same rejections
    /// (none), lower DMR. Neither truncates a job.
    #[must_use]
    pub fn event_vs_epoch(sim_secs: u64) -> Self {
        FleetScenario {
            migration: Some(0.1),
            admission_bound: Some(1.0),
            ..FleetScenario::base(
                "event vs epoch x3 (hot naive node)".into(),
                vec![
                    NodeSpec::sgprs("gpu0-naive", GpuSpec::rtx_2080_ti())
                        .with_scheduler(SchedulerKind::Naive),
                    NodeSpec::sgprs("gpu1", GpuSpec::rtx_2080_ti()),
                    NodeSpec::sgprs("gpu2", GpuSpec::rtx_2080_ti()),
                ],
                TenantLoad::Static {
                    n: 50,
                    model: ModelKind::ResNet18,
                    fps: crate::PAPER_FPS,
                },
                sim_secs,
            )
        }
    }

    /// Replaces the queue policy and re-pricing switch (for queueing
    /// comparisons; relabels like [`FleetScenario::with_placement`]).
    #[must_use]
    pub fn with_queue(mut self, policy: QueuePolicy, repricing: bool) -> Self {
        self.queue_policy = policy;
        self.repricing = repricing;
        let pricing = if repricing { "+repricing" } else { "" };
        self.label = format!("{} [{policy}{pricing}]", self.label);
        self
    }

    /// Enables migration off overloaded nodes at the given DMR
    /// threshold (relabels like [`FleetScenario::with_placement`]).
    #[must_use]
    pub fn with_migration(mut self, dmr_threshold: f64) -> Self {
        self.migration = Some(dmr_threshold);
        self.label = format!("{} [migration@{dmr_threshold}]", self.label);
        self
    }

    /// Switches the scenario to event-driven execution
    /// ([`Fleet::run_events`]) and relabels it.
    #[must_use]
    pub fn with_event_driven(mut self) -> Self {
        self.event_driven = true;
        self.label = format!("{} [event-driven]", self.label);
        self
    }

    /// Enables windowed telemetry (time-series + quantile sketches) at
    /// the given window. The label is deliberately untouched: telemetry
    /// observes a run, it does not define a new scenario.
    #[must_use]
    pub fn with_telemetry(mut self, window: SimDuration) -> Self {
        self.telemetry = Some(window);
        self
    }

    /// Replaces the placement policy (for policy comparisons).
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self.label = format!("{} [{placement}]", self.label);
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the churn trace this scenario replays.
    #[must_use]
    pub fn trace(&self) -> ChurnTrace {
        match &self.load {
            TenantLoad::Static { n, model, fps } => ChurnTrace::static_population(
                (0..*n).map(|i| TenantSpec::new(format!("{}-{i}", model.name()), *model, *fps)),
            ),
            TenantLoad::Churn(cfg) => ChurnTrace::generate(cfg, self.sim, self.seed),
            TenantLoad::Metro {
                base,
                burst_every,
                burst_size,
            } => {
                let mut trace = ChurnTrace::generate(base, self.sim, self.seed);
                // Superimpose synchronized burst waves: `burst_size`
                // extra feeds landing at one instant, every
                // `burst_every`, each living out the base churn's
                // maximum lifetime (departures inside the horizon are
                // replayed; later ones simply never fire).
                let model = base.mix.first().map_or(ModelKind::ResNet18, |&(m, _)| m);
                let mut wave = 1u64;
                loop {
                    let at = SimTime::ZERO + burst_every.mul_f64(wave as f64);
                    if at.duration_since(SimTime::ZERO) >= self.sim {
                        break;
                    }
                    for i in 0..*burst_size {
                        let mut tenant =
                            TenantSpec::new(format!("burst-{wave}-{i}"), model, base.fps)
                                .with_stages(base.stages)
                                .with_fps_ladder(base.fps_ladder.clone());
                        tenant.max_wait = base.max_wait;
                        let name = tenant.name.clone();
                        trace.push(at, ChurnEvent::Arrival(tenant));
                        let departure = at + base.max_lifetime;
                        if departure.duration_since(SimTime::ZERO) < self.sim {
                            trace.push(departure, ChurnEvent::Departure(name));
                        }
                    }
                    wave += 1;
                }
                trace
            }
        }
    }

    /// The scenario's offered load as an [`ArrivalStream`]: lazily
    /// generated for [`TenantLoad::Churn`] (O(active-tenants) memory,
    /// byte-identical events to [`FleetScenario::trace`]), materialised
    /// for static populations and metro burst overlays (whose hand-built
    /// waves have no generator form).
    #[must_use]
    pub fn arrivals(&self) -> ArrivalStream {
        match &self.load {
            TenantLoad::Churn(cfg) => ArrivalStream::generate(cfg, self.sim, self.seed),
            TenantLoad::Static { .. } | TenantLoad::Metro { .. } => self.trace().into(),
        }
    }

    /// Whether [`FleetScenario::run`] drives the fleet from the lazy
    /// generator rather than a materialised trace.
    #[must_use]
    pub fn streams_arrivals(&self) -> bool {
        matches!(self.load, TenantLoad::Churn(_))
    }

    /// The scenario lowered to its [`FleetConfig`] — what
    /// [`FleetScenario::run`] constructs internally, exposed so callers
    /// that need the [`Fleet`] handle afterwards (to read
    /// [`Fleet::span_calls`] or [`Fleet::span_profile`] post-run) can
    /// build it themselves,
    /// optionally arming knobs the scenario does not model
    /// (e.g. [`FleetConfig::with_profiling`]).
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.nodes.clone())
            .with_placement(self.placement)
            .with_seed(self.seed)
            .with_queue_policy(self.queue_policy);
        if self.repricing {
            cfg = cfg.with_repricing();
        }
        if let Some(shard_size) = self.sharding {
            cfg = match self.shard_router {
                ShardRouter::Scan => cfg.with_sharding(shard_size),
                ShardRouter::P2c => cfg.with_p2c_sharding(shard_size),
            };
        }
        cfg.migration = self.migration;
        if let Some(bound) = self.admission_bound {
            cfg.admission.utilization_bound = bound;
        }
        if self.event_driven {
            cfg = cfg.with_event_driven();
        }
        if let Some(window) = self.telemetry {
            cfg = cfg.with_telemetry_window(window);
        }
        cfg
    }

    /// Runs the scenario and returns the fleet metrics (epoch-driven,
    /// or event-driven when [`FleetScenario::event_driven`] is set).
    /// Churn loads stream their arrivals ([`FleetScenario::arrivals`]);
    /// the metrics are byte-identical to replaying the materialised
    /// [`FleetScenario::trace`].
    #[must_use]
    pub fn run(&self) -> FleetMetrics {
        Fleet::new(self.config()).run_configured(self.arrivals(), self.sim)
    }
}

/// The heterogeneous reference fleet: one full 2080 Ti plus three
/// progressively smaller devices (46, 34, 23 SMs).
#[must_use]
pub fn heterogeneous_nodes() -> Vec<NodeSpec> {
    vec![
        NodeSpec::sgprs("gpu0-68sm", GpuSpec::rtx_2080_ti()),
        NodeSpec::sgprs("gpu1-46sm", GpuSpec::synthetic(46)),
        NodeSpec::sgprs("gpu2-34sm", GpuSpec::synthetic(34)),
        NodeSpec::sgprs("gpu3-23sm", GpuSpec::synthetic(23)).with_contexts(2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_fleet_scales_single_node_throughput() {
        let one = FleetScenario::homogeneous(1, 6, 2).run();
        let three = FleetScenario::homogeneous(3, 18, 2).run();
        assert!(
            three.total_fps > one.total_fps * 2.0,
            "one {one:?} three {three:?}"
        );
    }

    #[test]
    fn heterogeneous_churn_scenario_runs_and_reports() {
        let m = FleetScenario::heterogeneous_churn(3).run();
        assert!(m.total_fps > 0.0);
        assert!(m.arrivals > 0);
        assert_eq!(m.nodes.len(), 4);
        let hist_total: u64 = m.utilization_histogram.iter().sum();
        assert!(hist_total > 0, "utilisation was sampled");
    }

    #[test]
    fn scale_out_scenario_runs_sharded_and_flat() {
        let sharded = FleetScenario::scale_out(64, 2);
        assert_eq!(sharded.nodes.len(), 64);
        assert_eq!(sharded.sharding, Some(8));
        let m = sharded.run();
        assert!(m.total_fps > 0.0);
        assert!(m.arrivals > 64, "brisk churn at scale: {m:?}");
        assert_eq!(m.nodes.len(), 64);
        // The flat baseline is the same scenario with routing disabled.
        let mut flat = sharded.clone();
        flat.sharding = None;
        assert_eq!(flat.trace(), sharded.trace(), "same offered load");
    }

    #[test]
    fn metro_scale_traces_superimpose_bursts_deterministically() {
        let s = FleetScenario::metro_scale(512, 4);
        assert_eq!(s.nodes.len(), 512);
        assert_eq!(s.sharding, Some(8));
        assert_eq!(s.shard_router, ShardRouter::P2c);
        assert_eq!(s.trace(), s.trace(), "same seed, same trace");
        let events = s.trace().into_sorted();
        let burst_arrivals = events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Arrival(t) if t.name.starts_with("burst-")))
            .count();
        // Sim 4 s, a wave at 2 s of n/4 = 128 feeds.
        assert_eq!(burst_arrivals, 128, "one wave inside the horizon");
        let base_arrivals = events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Arrival(_)))
            .count()
            - burst_arrivals;
        assert!(base_arrivals > 256, "brisk base churn: {base_arrivals}");
    }

    #[test]
    fn overload_burst_repricing_contrast_shares_the_trace() {
        let fifo = FleetScenario::overload_burst(3);
        let smart =
            FleetScenario::overload_burst(3).with_queue(QueuePolicy::EarliestDeadline, true);
        assert_eq!(fifo.trace(), smart.trace(), "same offered load");
        assert!(smart.label.contains("earliest-deadline+repricing"));
        let fifo_m = fifo.run();
        let smart_m = smart.run();
        assert!(fifo_m.rejected > 0, "the burst must overload: {fifo_m:?}");
        assert_eq!(fifo_m.degraded, 0, "baseline never re-prices");
        assert!(
            smart_m.degraded > 0,
            "the ladder absorbs overload: {smart_m:?}"
        );
    }

    #[test]
    fn event_vs_epoch_scenario_contrasts_the_modes() {
        let epoch = FleetScenario::event_vs_epoch(4);
        let event = FleetScenario::event_vs_epoch(4).with_event_driven();
        assert!(event.label.contains("event-driven"));
        assert_eq!(epoch.trace(), event.trace(), "same offered load");
        let epoch_m = epoch.run();
        let event_m = event.run();
        assert_eq!(event_m.truncated_jobs, 0, "{event_m:?}");
        assert_eq!(epoch_m.truncated_jobs, 0, "{epoch_m:?}");
        assert_eq!(epoch_m.rejection_rate, event_m.rejection_rate);
        // Only the event engine charges migrations a stall.
        assert!(event_m.migrations > 0 && event_m.migration_stall_secs > 0.0);
        assert!(epoch_m.migrations > 0, "{epoch_m:?}");
        assert_eq!(epoch_m.migration_stall_secs, 0.0);
    }

    #[test]
    fn placement_override_relabels() {
        let s = FleetScenario::homogeneous(2, 4, 1).with_placement(PlacementPolicy::BestFit);
        assert!(s.label.contains("best-fit"));
        assert_eq!(s.placement, PlacementPolicy::BestFit);
    }

    #[test]
    fn telemetry_knob_attaches_a_v3_report_without_changing_decisions() {
        let base = FleetScenario::overload_burst(2).run();
        let telem = FleetScenario::overload_burst(2)
            .with_telemetry(SimDuration::from_millis(250))
            .run();
        assert_eq!(base.schema_version, sgprs_cluster::BASE_SCHEMA_VERSION);
        assert_eq!(telem.schema_version, sgprs_cluster::METRICS_SCHEMA_VERSION);
        let report = telem.telemetry.as_ref().expect("telemetry attached");
        assert!(!report.windows.is_empty());
        // Observation never steers: every decision counter matches.
        assert_eq!(base.arrivals, telem.arrivals);
        assert_eq!(base.rejected, telem.rejected);
        assert_eq!(base.degraded, telem.degraded);
        assert_eq!(base.total_fps, telem.total_fps);
    }

    #[test]
    fn static_trace_has_one_arrival_per_tenant() {
        let s = FleetScenario::homogeneous(2, 5, 1);
        assert_eq!(s.trace().len(), 5);
    }
}
