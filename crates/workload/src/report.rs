//! Report rendering: fixed-width tables and CSV for every figure.

use crate::fig1::SpeedupCurvePoints;
use crate::sweep::SweepSeries;

/// Renders Figure 1 as a fixed-width table: one row per SM count, one
/// column per curve.
#[must_use]
pub fn fig1_table(curves: &[SpeedupCurvePoints]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>5}", "SMs"));
    for c in curves {
        out.push_str(&format!("  {:>22}", c.label));
    }
    out.push('\n');
    let rows = curves.first().map_or(0, |c| c.points.len());
    for i in 0..rows {
        out.push_str(&format!("{:>5}", curves[0].points[i].0));
        for c in curves {
            out.push_str(&format!("  {:>21.2}x", c.points[i].1));
        }
        out.push('\n');
    }
    out
}

/// Renders Figure 1 as CSV (`sms,label,speedup`).
#[must_use]
pub fn fig1_csv(curves: &[SpeedupCurvePoints]) -> String {
    let mut out = String::from("sms,operation,speedup\n");
    for c in curves {
        for &(m, s) in &c.points {
            out.push_str(&format!("{m},{},{s:.4}\n", c.label));
        }
    }
    out
}

/// Which metric of a sweep a table shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMetric {
    /// Total frames per second (Figures 3a / 4a).
    TotalFps,
    /// Deadline-miss rate (Figures 3b / 4b).
    Dmr,
}

/// Renders a sweep as a fixed-width table: one row per task count, one
/// column per series.
#[must_use]
pub fn sweep_table(series: &[SweepSeries], metric: SweepMetric) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>6}", "tasks"));
    for s in series {
        out.push_str(&format!("  {:>18}", s.label));
    }
    out.push('\n');
    let rows = series.first().map_or(0, |s| s.points.len());
    for i in 0..rows {
        out.push_str(&format!("{:>6}", series[0].points[i].tasks));
        for s in series {
            let p = &s.points[i];
            match metric {
                SweepMetric::TotalFps => out.push_str(&format!("  {:>18.1}", p.total_fps)),
                SweepMetric::Dmr => out.push_str(&format!("  {:>17.1}%", p.dmr * 100.0)),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a sweep as CSV (`tasks,label,total_fps,dmr`).
#[must_use]
pub fn sweep_csv(series: &[SweepSeries]) -> String {
    let mut out = String::from("tasks,scheduler,total_fps,dmr\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.2},{:.4}\n",
                p.tasks, s.label, p.total_fps, p.dmr
            ));
        }
    }
    out
}

/// Summarises a scenario's series the way §V quotes them: pivot points,
/// plateau FPS, and the relative FPS drop of the naive baseline against
/// the best SGPRS variant.
#[must_use]
pub fn headline_summary(series: &[SweepSeries]) -> String {
    let mut out = String::new();
    let mut best_fps = 0.0f64;
    let mut naive_fps = None;
    for s in series {
        out.push_str(&format!(
            "{:<22} pivot point = {:>2} tasks, final FPS = {:>6.1}, final DMR = {:>5.1}%\n",
            s.label,
            s.pivot_point(),
            s.final_fps(),
            s.final_dmr() * 100.0
        ));
        if s.label.starts_with("naive") {
            naive_fps = Some(s.final_fps());
        } else {
            best_fps = best_fps.max(s.final_fps());
        }
    }
    if let Some(naive) = naive_fps {
        if best_fps > 0.0 {
            let drop = 100.0 * (1.0 - naive / best_fps);
            out.push_str(&format!(
                "naive FPS drop vs best SGPRS variant: {drop:.0}% ({naive:.0} vs {best_fps:.0} fps)\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    fn series(label: &str, fps: &[f64], missed: &[u64]) -> SweepSeries {
        SweepSeries {
            label: label.into(),
            points: fps
                .iter()
                .zip(missed)
                .enumerate()
                .map(|(i, (&f, &m))| SweepPoint {
                    tasks: i + 1,
                    total_fps: f,
                    dmr: if m > 0 { 0.2 } else { 0.0 },
                    released: 100,
                    completed: 90,
                    missed: m,
                })
                .collect(),
        }
    }

    #[test]
    fn fig1_table_has_header_and_rows() {
        let curves = crate::fig1::generate();
        let table = fig1_table(&curves);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 1 + crate::fig1::SM_POINTS.len());
        assert!(lines[0].contains("convolution"));
        assert!(lines[1].trim_start().starts_with('1'));
    }

    #[test]
    fn fig1_csv_is_well_formed() {
        let curves = crate::fig1::generate();
        let csv = fig1_csv(&curves);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "sms,operation,speedup");
        assert_eq!(lines.len(), 1 + curves.len() * crate::fig1::SM_POINTS.len());
        assert!(lines[1..].iter().all(|l| l.split(',').count() == 3));
    }

    #[test]
    fn sweep_tables_render_both_metrics() {
        let s = [series("naive (np=2)", &[30.0, 55.0], &[0, 10])];
        let fps = sweep_table(&s, SweepMetric::TotalFps);
        assert!(fps.contains("30.0"));
        let dmr = sweep_table(&s, SweepMetric::Dmr);
        assert!(dmr.contains("20.0%"));
        assert!(dmr.contains("0.0%"));
    }

    #[test]
    fn headline_reports_drop_vs_best() {
        let s = [
            series("naive (np=2)", &[30.0, 60.0, 62.0], &[0, 5, 20]),
            series("SGPRS 1.5 (np=2)", &[30.0, 60.0, 100.0], &[0, 0, 3]),
        ];
        let text = headline_summary(&s);
        assert!(
            text.contains("pivot point =  1"),
            "naive pivots at 1:\n{text}"
        );
        assert!(
            text.contains("pivot point =  2"),
            "sgprs pivots at 2:\n{text}"
        );
        assert!(text.contains("38%"), "62 vs 100 fps is a 38% drop:\n{text}");
    }

    #[test]
    fn sweep_csv_round_trips_counts() {
        let s = [series("a", &[1.0], &[0]), series("b", &[2.0], &[1])];
        let csv = sweep_csv(&s);
        assert_eq!(csv.lines().count(), 1 + 2);
    }
}
