//! The experiment registry: one entry per `repro` target.
//!
//! The `repro` binary dispatches over [`REGISTRY`] instead of an if-chain:
//! `repro list` walks it, `repro <id>` looks an entry up, and `repro all`
//! iterates it in order. Every entry names the run function of its group,
//! and a run renders the text block of every entry it serves. Entries that
//! present different views of the same expensive run (fig9/fig10 share the
//! 54K-executor emulation; table3, table4, fig12 and fig13 share the
//! provisioning sweep) declare a common [`Experiment::shared_run_key`], so
//! the run happens once per `repro all`.

use super::{
    ablation, applications, bundling, data, efficiency, endurance, measured, provisioning,
    scale54k, tables, threetier, throughput, Scale,
};

/// The rendered text blocks of one run, keyed by the id of the entry each
/// block belongs to. The typed results stay public in the experiment
/// modules for callers that check numbers; a finished run keeps only text.
pub struct Report {
    blocks: Vec<(&'static str, String)>,
}

impl Report {
    /// A run that serves one entry.
    fn one(id: &'static str, text: String) -> Report {
        Report {
            blocks: vec![(id, text)],
        }
    }
}

/// One `repro` target.
///
/// `run` and `render` are separate so `repro all` can execute a shared run
/// once and print every view of it: `run` renders a block for each entry of
/// its `shared_run_key` group, and `render` returns the entry's own block
/// (empty if the run produced none).
pub trait Experiment: Sync {
    /// Stable command-line id (`repro <id>`).
    fn id(&self) -> &'static str;
    /// One-line human description for `repro list`.
    fn title(&self) -> &'static str;
    /// Entries returning the same key render views of one shared run.
    fn shared_run_key(&self) -> &'static str;
    /// Execute the experiment.
    fn run(&self, scale: Scale) -> Report;
    /// Render the result as the text block `repro` prints.
    fn render(&self, report: &Report) -> String;
}

/// A registry entry: its group's run function and what `repro list` shows.
struct Entry {
    id: &'static str,
    title: &'static str,
    shared_run_key: &'static str,
    run: fn(Scale) -> Report,
}

/// An entry whose run serves it alone.
const fn solo(id: &'static str, title: &'static str, run: fn(Scale) -> Report) -> Entry {
    shared(id, id, title, run)
}

/// An entry of the `key` group, whose run serves several entries.
const fn shared(
    key: &'static str,
    id: &'static str,
    title: &'static str,
    run: fn(Scale) -> Report,
) -> Entry {
    Entry {
        id,
        title,
        shared_run_key: key,
        run,
    }
}

impl Experiment for Entry {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn shared_run_key(&self) -> &'static str {
        self.shared_run_key
    }
    fn run(&self, scale: Scale) -> Report {
        (self.run)(scale)
    }
    fn render(&self, report: &Report) -> String {
        report
            .blocks
            .iter()
            .find(|(id, _)| *id == self.id)
            .map(|(_, text)| text.clone())
            .unwrap_or_default()
    }
}

fn table1(_scale: Scale) -> Report {
    Report::one("table1", tables::render_table1())
}

fn fig3(scale: Scale) -> Report {
    Report::one("fig3", throughput::render_fig3(&throughput::fig3(scale)))
}

fn table2(scale: Scale) -> Report {
    Report::one(
        "table2",
        throughput::render_table2(&throughput::table2(scale)),
    )
}

fn fig4(scale: Scale) -> Report {
    Report::one("fig4", data::render_fig4(&data::fig4(scale)))
}

fn fig5(scale: Scale) -> Report {
    Report::one("fig5", bundling::render_fig5(&bundling::fig5(scale)))
}

fn fig6(scale: Scale) -> Report {
    Report::one("fig6", efficiency::render_fig6(&efficiency::fig6(scale)))
}

fn fig7(scale: Scale) -> Report {
    Report::one("fig7", efficiency::render_fig7(&efficiency::fig7(scale)))
}

fn fig8(scale: Scale) -> Report {
    Report::one("fig8", endurance::render_fig8(&endurance::fig8(scale)))
}

/// Figures 9 and 10 are one plot of the 54K-executor emulation.
fn scale54k(scale: Scale) -> Report {
    let text = scale54k::render(&scale54k::run(scale));
    Report {
        blocks: vec![("fig9", text.clone()), ("fig10", text)],
    }
}

fn fig11(_scale: Scale) -> Report {
    Report::one("fig11", provisioning::render_fig11())
}

/// Tables 3/4 summarise the provisioning sweep; Figures 12/13 each plot one
/// labelled arm of it.
fn provisioning(scale: Scale) -> Report {
    let runs = provisioning::run_all(scale);
    let trace = |label: &str| {
        runs.iter()
            .find(|r| r.label == label)
            .map(provisioning::render_trace)
            .unwrap_or_default()
    };
    Report {
        blocks: vec![
            ("table3", provisioning::render_table3(&runs)),
            ("table4", provisioning::render_table4(&runs)),
            ("fig12", trace("Falkon-15")),
            ("fig13", trace("Falkon-180")),
        ],
    }
}

fn fig14(scale: Scale) -> Report {
    Report::one(
        "fig14",
        applications::render_fig14(&applications::fig14(scale)),
    )
}

fn fig15(scale: Scale) -> Report {
    Report::one(
        "fig15",
        applications::render_fig15(&applications::fig15(scale)),
    )
}

fn table5(_scale: Scale) -> Report {
    Report::one("table5", tables::render_table5())
}

/// The four ablation studies, printed as one block.
fn ablations(scale: Scale) -> Report {
    let text = [
        ablation::render_data_diffusion(&ablation::data_diffusion(scale)),
        ablation::render_acquisition(&ablation::acquisition_policies(scale)),
        ablation::render_prefetch(&ablation::prefetch(scale)),
        threetier::render(&threetier::run(scale)),
    ]
    .join("\n");
    Report::one("ablations", text)
}

fn measured(scale: Scale) -> Report {
    Report::one("measured", measured::render(&measured::run(scale)))
}

/// Every experiment, in `repro all` emission order.
pub static REGISTRY: &[&dyn Experiment] = &[
    &solo(
        "table1",
        "Feature comparison across resource-management systems",
        table1,
    ),
    &solo("fig3", "Throughput as function of executor count", fig3),
    &solo(
        "table2",
        "Measured and cited throughput across systems",
        table2,
    ),
    &solo(
        "fig4",
        "Throughput with data staging (GPFS vs local disk)",
        fig4,
    ),
    &solo("fig5", "Task-bundling throughput sweep", fig5),
    &solo("fig6", "Efficiency vs task length (32/64 executors)", fig6),
    &solo("fig7", "Speedup vs number of processors", fig7),
    &solo("fig8", "Endurance run (2M tasks, JVM GC model)", fig8),
    &shared(
        "scale54k",
        "fig9",
        "54K-executor emulation: throughput",
        scale54k,
    ),
    &shared(
        "scale54k",
        "fig10",
        "54K-executor emulation: efficiency (same run as fig9)",
        scale54k,
    ),
    &solo(
        "fig11",
        "The 18-stage synthetic provisioning workload",
        fig11,
    ),
    &shared(
        "provisioning",
        "table3",
        "Per-task queue/exec times across provisioning policies",
        provisioning,
    ),
    &shared(
        "provisioning",
        "table4",
        "Resource utilization and execution efficiency (same run as table3)",
        provisioning,
    ),
    &shared(
        "provisioning",
        "fig12",
        "Executor lifecycle trace, Falkon-15 (same run as table3)",
        provisioning,
    ),
    &shared(
        "provisioning",
        "fig13",
        "Executor lifecycle trace, Falkon-180 (same run as table3)",
        provisioning,
    ),
    &solo(
        "fig14",
        "Application throughput (astronomy workload)",
        fig14,
    ),
    &solo("fig15", "Application comparison (MolDyn workflow)", fig15),
    &solo("table5", "Reproduction vs paper summary table", table5),
    &solo(
        "ablations",
        "Design-choice ablations and Section 6 extensions",
        ablations,
    ),
    &solo(
        "measured",
        "Locally measured throughput + dispatch-overhead quantiles",
        measured,
    ),
];

/// Find an experiment by command-line id.
pub fn lookup(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lookup_finds_them() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.id()), "duplicate id {}", e.id());
            assert!(std::ptr::eq(
                lookup(e.id()).expect("lookup") as *const _ as *const (),
                *e as *const _ as *const ()
            ));
            assert!(!e.title().is_empty());
        }
        assert!(lookup("fig99").is_none());
    }

    #[test]
    fn shared_run_groups_match_issue() {
        let key = |id: &str| lookup(id).unwrap().shared_run_key();
        assert_eq!(key("fig9"), key("fig10"));
        assert_eq!(key("table3"), key("table4"));
        assert_eq!(key("table3"), key("fig12"));
        assert_eq!(key("table3"), key("fig13"));
        assert_ne!(key("fig3"), key("fig4"));
    }

    #[test]
    fn static_entries_render_without_running() {
        // A static entry's run renders its table and simulates nothing, so
        // even the full scale returns at once; no other entry claims the
        // block.
        for id in ["table1", "table5", "fig11"] {
            let e = lookup(id).unwrap();
            let report = e.run(Scale::Full);
            assert!(!e.render(&report).is_empty(), "{id} rendered empty");
            assert!(lookup("fig3").unwrap().render(&report).is_empty());
        }
    }
}
