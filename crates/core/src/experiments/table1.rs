//! Table 1 — qualitative summary of data / communication-thread placement
//! impacts, derived from the Figure 5 sweeps.
//!
//! The sweep plan is identical to Figure 5's, so inside a shared campaign
//! every point is a cache hit: Table 1 costs nothing beyond Figure 5.

use simcore::Series;
use topology::Placement;

use super::contention::{self, ContentionPoint, PlacementPoint};
use crate::campaign::{PointCtx, Sweep, Values};
use crate::experiments::Fidelity;
use crate::report::{Check, FigureData};

/// One derived row of Table 1.
struct TableRow {
    /// Placement label.
    label: &'static str,
    /// Latency inflation factor at full occupancy.
    lat_factor: f64,
    /// 10 %-degradation onset of the latency curve (computing cores).
    lat_onset: Option<f64>,
    /// Bandwidth loss at full occupancy, fraction.
    bw_loss: f64,
    /// 10 %-degradation onset of the bandwidth curve.
    bw_onset: Option<f64>,
}

/// Registry driver for Table 1 (Figure 5's sweep; every point shared
/// through the campaign cache).
pub(crate) struct Table1;

impl Sweep for Table1 {
    const NAME: &'static str = "table1";
    const ANCHOR: &'static str = "§4.3, Table 1";
    type Point = PlacementPoint;
    type Value = ContentionPoint;

    fn sweep(&self, fidelity: Fidelity) -> Vec<(String, PlacementPoint)> {
        contention::placement_sweep(fidelity)
    }

    fn measure(
        &self,
        point: &PlacementPoint,
        ctx: &PointCtx<'_>,
    ) -> Result<ContentionPoint, String> {
        contention::measure(ctx, point)
    }

    fn figures(&self, fidelity: Fidelity, values: Values<'_, ContentionPoint>) -> Vec<FigureData> {
        let rows: Vec<TableRow> = Placement::all_combinations()
            .iter()
            .zip(contention::curves(fidelity, values))
            .map(|(&(label, _), (lat, bw))| {
                let lat_base = lat.comm_alone.points[0].y.median;
                let lat_full = lat.comm_together.points.last().expect("points").y.median;
                let bw_base = bw.comm_alone.points[0].y.median;
                let bw_full = bw.comm_together.points.last().expect("points").y.median;
                TableRow {
                    label,
                    lat_factor: lat_full / lat_base,
                    lat_onset: lat.comm_together.onset_x(lat_base, 0.10),
                    bw_loss: 1.0 - bw_full / bw_base,
                    bw_onset: bw.comm_together.onset_x(bw_base, 0.10),
                }
            })
            .collect();
        // Encode the table as series: x = row index.
        let mut s_lat = Series::new("latency inflation factor at full occupancy");
        let mut s_bw = Series::new("bandwidth loss (%) at full occupancy");
        let mut notes = vec![
            "rows: 0 = data near/thread near, 1 = near/far, 2 = far/near, 3 = far/far".into(),
        ];
        for (i, r) in rows.iter().enumerate() {
            s_lat.push(i as f64, &[r.lat_factor]);
            s_bw.push(i as f64, &[r.bw_loss * 100.0]);
            notes.push(format!(
                "{}: latency ×{:.2} (onset {:?}), bandwidth −{:.0} % (onset {:?})",
                r.label,
                r.lat_factor,
                r.lat_onset,
                r.bw_loss * 100.0,
                r.bw_onset
            ));
        }

        // Table 1's qualitative content.
        let near_thread_max = rows[0].lat_factor.max(rows[2].lat_factor);
        let far_thread_min = rows[1].lat_factor.min(rows[3].lat_factor);
        let near_data_max = rows[0].bw_loss.max(rows[1].bw_loss);
        let far_data_min = rows[2].bw_loss.min(rows[3].bw_loss);
        let checks = vec![
            Check::new(
                "thread far ⇒ latency increases highly; thread near ⇒ slightly",
                far_thread_min > near_thread_max,
                format!(
                    "far ≥ ×{:.2} vs near ≤ ×{:.2}",
                    far_thread_min, near_thread_max
                ),
            ),
            Check::new(
                "data far ⇒ bandwidth drops more than data near",
                far_data_min > near_data_max,
                format!(
                    "far ≥ {:.0} % vs near ≤ {:.0} %",
                    far_data_min * 100.0,
                    near_data_max * 100.0
                ),
            ),
        ];

        vec![FigureData {
            id: "table1",
            title: "Summary of data / communication-thread placement impact (henri)".into(),
            xlabel: "placement row",
            ylabel: "factor / %",
            series: vec![s_lat, s_bw],
            notes,
            checks,
            runs: Vec::new(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_experiment, CampaignOptions};

    #[test]
    fn table1_quick_passes_checks() {
        let t = run_experiment(&Table1, &CampaignOptions::serial(Fidelity::Quick))
            .figures
            .remove(0);
        for c in &t.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(t.series.len(), 2);
        assert_eq!(t.series[0].points.len(), 4);
    }
}
