//! **Calibration probe**: fine-grained view of the saturation regime for
//! the paper's best configuration (np=3, os=1.5). Prints stage WCETs and,
//! for each task count around the pivot, FPS / DMR / response tail /
//! per-context busy fractions under two admission policies — the raw data
//! behind the calibrated cost and contention models
//! (`CostModel::calibrated`, `ContentionModel::calibrated`).
//!
//! Usage: `cargo run --release -p sgprs-bench --bin probe`

use sgprs_core::{offline, Admission, ContextPoolSpec, SgprsConfig, SgprsScheduler};
use sgprs_dnn::{models, CostModel};
use sgprs_rt::{SimDuration, SimTime};

fn main() {
    let pool = ContextPoolSpec::new(3, 1.5);
    let net = models::resnet18(1, 224);
    let task = offline::compile_network_task(
        "t",
        &net,
        &CostModel::calibrated(),
        6,
        SimDuration::from_micros(33_333),
        &pool,
    )
    .expect("six stages");
    println!(
        "stage WCETs: {:?}",
        task.spec
            .stages
            .iter()
            .map(|s| format!("{}", s.wcet))
            .collect::<Vec<_>>()
    );
    for n in [24, 25, 26, 27, 28, 29, 30] {
        for adm in [Admission::FrameBuffer, Admission::SkipIfBusy] {
            let mut cfg = SgprsConfig::new(pool.clone());
            cfg.admission = adm;
            let mut s = SgprsScheduler::new(cfg, vec![task.clone(); n]);
            let m = s.run(SimTime::ZERO + SimDuration::from_secs(5));
            let busy: Vec<String> = (0..3)
                .map(|c| {
                    format!(
                        "{:.2}",
                        s.engine().busy_fraction(sgprs_gpu_sim::ContextId(c))
                    )
                })
                .collect();
            println!(
                "n={n} {adm:?} fps={:.1} dmr={:.2} late={} skip={} p95={} busy={busy:?}",
                m.total_fps, m.dmr, m.late, m.skipped, m.response_p95
            );
        }
    }
}
