//! Human-readable network reports: per-layer cost breakdowns.
//!
//! Useful for understanding *why* a network scales the way it does — the
//! convolution/elementwise time split here is exactly what drives the
//! end-to-end speedup of Figure 1.

use crate::{CostModel, Network};
use sgprs_gpu_sim::{OpClass, SpeedupModel};

/// One row of a per-layer report.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub name: String,
    /// Operation class.
    pub op: OpClass,
    /// Output shape, formatted.
    pub output: String,
    /// MFLOPs per inference.
    pub mflops: f64,
    /// MB moved per inference.
    pub mbytes: f64,
    /// Single-SM time in microseconds.
    pub t1_us: f64,
    /// Share of the network's total single-SM time, in percent.
    pub share_pct: f64,
}

/// Builds the per-layer cost table for a network.
#[must_use]
pub fn layer_rows(net: &Network, cost: &CostModel) -> Vec<LayerRow> {
    let total_ns: f64 = net
        .layers()
        .iter()
        .map(|l| cost.single_sm_ns(l))
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    net.layers()
        .iter()
        .map(|l| {
            let t1 = cost.single_sm_ns(l);
            LayerRow {
                name: l.name.clone(),
                op: l.op_class(),
                output: l.output.to_string(),
                mflops: l.flops as f64 / 1e6,
                mbytes: l.bytes as f64 / 1e6,
                t1_us: t1 / 1e3,
                share_pct: 100.0 * t1 / total_ns,
            }
        })
        .collect()
}

/// Renders the per-layer table as fixed-width text with a summary footer.
#[must_use]
pub fn render(net: &Network, cost: &CostModel) -> String {
    let rows = layer_rows(net, cost);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>12} {:>14} {:>9} {:>8} {:>9} {:>7}\n",
        "layer", "op", "output", "MFLOPs", "MB", "t1(us)", "share"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<22} {:>12} {:>14} {:>9.1} {:>8.2} {:>9.1} {:>6.1}%\n",
            r.name,
            r.op.label(),
            r.output,
            r.mflops,
            r.mbytes,
            r.t1_us,
            r.share_pct
        ));
    }
    let speedup = SpeedupModel::calibrated_rtx_2080_ti();
    let profile = net.work_profile(cost);
    out.push_str(&format!(
        "\n{}: {} layers, {:.2} GFLOPs, {:.1} MB, t1 = {:.2} ms, t68 = {:.2} ms ({:.1}x end-to-end)\n",
        net.name,
        net.len(),
        net.total_flops() as f64 / 1e9,
        net.total_bytes() as f64 / 1e6,
        profile.total_single_sm_ns() / 1e6,
        profile.duration_ns_at(&speedup, 68.0) / 1e6,
        profile.effective_speedup(&speedup, 68.0),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let net = models::resnet18(1, 224);
        let rows = layer_rows(&net, &CostModel::calibrated());
        let total: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn row_count_matches_layers() {
        let net = models::alexnet(1, 224);
        let rows = layer_rows(&net, &CostModel::calibrated());
        assert_eq!(rows.len(), net.len());
    }

    #[test]
    fn render_contains_summary_line() {
        let net = models::resnet18(1, 224);
        let text = render(&net, &CostModel::calibrated());
        assert!(text.contains("resnet18:"));
        assert!(text.contains("GFLOPs"));
        assert!(text.contains("x end-to-end"));
        assert!(text.lines().count() > net.len());
    }

    #[test]
    fn stem_conv_dominates_early_layers() {
        let net = models::resnet18(1, 224);
        let rows = layer_rows(&net, &CostModel::calibrated());
        let stem = rows.iter().find(|r| r.name == "stem.conv").unwrap();
        let stem_bn = rows.iter().find(|r| r.name == "stem.bn").unwrap();
        assert!(stem.t1_us > stem_bn.t1_us);
    }
}
