//! Figure 3 (throughput vs executor count) and Table 2 (cross-system
//! throughput comparison).

use crate::costs::CostModel;
use crate::experiments::Scale;
use crate::lrmdirect::run_direct;
use crate::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon_lrm::profile::{CONDOR_V6_7_2, PBS_V2_1_8};
use falkon_proto::task::TaskSpec;
use falkon_sim::table::{series_tsv, Table};

/// One Figure 3 series point.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Executor count.
    pub executors: u32,
    /// Falkon without security, tasks/sec.
    pub falkon_tps: f64,
    /// Falkon with GSISecureConversation, tasks/sec.
    pub falkon_secure_tps: f64,
}

/// Figure 3 result.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Throughput per executor count.
    pub points: Vec<Fig3Point>,
    /// The GT4 WS-call upper bound (≈500 calls/sec on the paper's host).
    pub gt4_bound_tps: f64,
}

fn run_throughput(executors: u32, costs: CostModel, tasks: u64) -> f64 {
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors,
        costs,
        ..SimFalkonConfig::default()
    });
    // Warm pool: the paper's executors are registered before measurements.
    let submit_at: u64 = 10_000_000;
    sim.submit(
        submit_at,
        (0..tasks).map(|i| TaskSpec::sleep(i, 0)).collect(),
    );
    let end = sim.run_until_drained_with(drop).makespan_us;
    tasks as f64 / ((end - submit_at).max(1) as f64 / 1e6)
}

/// Run the Figure 3 sweep.
pub fn fig3(scale: Scale) -> Fig3 {
    let counts: &[u32] = scale.pick(
        &[1, 4, 16, 64, 256][..],
        &[1, 2, 4, 8, 16, 32, 64, 128, 256][..],
    );
    let per_exec_tasks = scale.pick(100, 400);
    let points = counts
        .iter()
        .map(|&executors| {
            let tasks = (executors as u64 * per_exec_tasks).clamp(200, 60_000);
            Fig3Point {
                executors,
                falkon_tps: run_throughput(executors, CostModel::no_security(), tasks),
                falkon_secure_tps: run_throughput(executors, CostModel::secure(), tasks),
            }
        })
        .collect();
    Fig3 {
        points,
        gt4_bound_tps: 500.0,
    }
}

/// Render Figure 3 as TSV series.
pub fn render_fig3(f: &Fig3) -> String {
    let mut out = String::new();
    out.push_str("== Figure 3: Throughput as function of executor count ==\n");
    out.push_str(&series_tsv(
        "GT4 WS-call bound (no security)",
        "executors",
        "calls/sec",
        &f.points
            .iter()
            .map(|p| (p.executors as f64, f.gt4_bound_tps))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "Falkon (no security)",
        "executors",
        "tasks/sec",
        &f.points
            .iter()
            .map(|p| (p.executors as f64, p.falkon_tps))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&series_tsv(
        "Falkon (GSISecureConversation)",
        "executors",
        "tasks/sec",
        &f.points
            .iter()
            .map(|p| (p.executors as f64, p.falkon_secure_tps))
            .collect::<Vec<_>>(),
    ));
    out
}

/// One Table 2 row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// System name.
    pub system: &'static str,
    /// Hardware / provenance comment.
    pub comments: &'static str,
    /// Throughput, tasks/sec.
    pub throughput: f64,
    /// Whether the number was produced by this reproduction (vs cited).
    pub measured_here: bool,
}

/// Run the Table 2 comparison (simulated Falkon + modelled PBS/Condor +
/// cited rows).
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    let tasks = scale.pick(2_000, 20_000);
    let falkon = run_throughput(256, CostModel::no_security(), tasks);
    let falkon_sec = run_throughput(256, CostModel::secure(), tasks);
    let pbs = run_direct(PBS_V2_1_8, 64, 100, 0).throughput;
    let condor = run_direct(CONDOR_V6_7_2, 64, 100, 0).throughput;
    vec![
        Table2Row {
            system: "Falkon (no security)",
            comments: "this reproduction, simulated UC_x64 cost model",
            throughput: falkon,
            measured_here: true,
        },
        Table2Row {
            system: "Falkon (GSISecureConversation)",
            comments: "this reproduction, simulated UC_x64 cost model",
            throughput: falkon_sec,
            measured_here: true,
        },
        Table2Row {
            system: "Condor (v6.7.2)",
            comments: "this reproduction, modelled via MyCluster profile",
            throughput: condor,
            measured_here: true,
        },
        Table2Row {
            system: "PBS (v2.1.8)",
            comments: "this reproduction, modelled",
            throughput: pbs,
            measured_here: true,
        },
        Table2Row {
            system: "Condor (v6.7.2) [15]",
            comments: "cited: Quad Xeon 3GHz, 4GB",
            throughput: 2.0,
            measured_here: false,
        },
        Table2Row {
            system: "Condor (v6.8.2) [34]",
            comments: "cited",
            throughput: 0.42,
            measured_here: false,
        },
        Table2Row {
            system: "Condor (v6.9.3) [34]",
            comments: "cited",
            throughput: 11.0,
            measured_here: false,
        },
        Table2Row {
            system: "Condor-J2 [15]",
            comments: "cited: Quad Xeon 3GHz, 4GB",
            throughput: 22.0,
            measured_here: false,
        },
        Table2Row {
            system: "BOINC [19,20]",
            comments: "cited: Dual Xeon 2.4GHz, 2GB",
            throughput: 93.0,
            measured_here: false,
        },
    ]
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut t = Table::new(
        "Table 2: Measured and cited throughput (tasks/sec)",
        &["System", "Comments", "Throughput", "Source"],
    );
    for r in rows {
        t.row(vec![
            r.system.to_string(),
            r.comments.to_string(),
            format!("{:.2}", r.throughput),
            if r.measured_here {
                "this repro"
            } else {
                "cited"
            }
            .to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shapes_match_paper() {
        let f = fig3(Scale::Quick);
        let last = f.points.last().unwrap();
        // Saturation near the 487/s bound, security ≈2.4× lower.
        assert!(
            (400.0..520.0).contains(&last.falkon_tps),
            "tps = {}",
            last.falkon_tps
        );
        assert!(
            (150.0..230.0).contains(&last.falkon_secure_tps),
            "secure tps = {}",
            last.falkon_secure_tps
        );
        // Single-executor point near 28 / 12.
        let first = f.points.first().unwrap();
        assert!((20.0..32.0).contains(&first.falkon_tps));
        assert!((8.0..14.0).contains(&first.falkon_secure_tps));
        // Throughput is monotonically non-decreasing in executors.
        for w in f.points.windows(2) {
            assert!(w[1].falkon_tps >= w[0].falkon_tps * 0.95);
        }
        // The GT4 bound dominates Falkon everywhere.
        for p in &f.points {
            assert!(p.falkon_tps <= f.gt4_bound_tps * 1.05);
        }
    }

    #[test]
    fn table2_ordering_matches_paper() {
        let rows = table2(Scale::Quick);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.system.starts_with(name))
                .unwrap()
                .throughput
        };
        // Falkon is orders of magnitude above PBS/Condor.
        assert!(get("Falkon (no security)") > 100.0 * get("PBS"));
        assert!(get("Falkon (no security)") > get("Falkon (GSISecure"));
        assert!(get("Falkon (no security)") > get("BOINC"));
        let render = render_table2(&rows);
        assert!(render.contains("BOINC"));
    }
}
