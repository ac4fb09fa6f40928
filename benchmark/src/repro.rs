//! The `repro_full` workload: every registry experiment except `measured`
//! (which opens real sockets and reports wall-clock rates), serial, in
//! process. A "task" is one experiment.

use falkon_exp::experiments::registry::{Experiment, Report, REGISTRY};
use falkon_exp::experiments::Scale;
use std::collections::HashMap;
use std::time::Instant;

/// The experiment left out altogether: it measures this machine's sockets,
/// not the simulator.
const EXCLUDED: &str = "measured";

/// The 2 M-task endurance simulation. It runs once per run, outside the
/// timed passes: it allocates ~1.2 GiB, and on the VM the benchmark was
/// sized on the page faults for that memory took 2.7-11 s for identical
/// work (README.md), which would drown every other experiment's time. Its
/// memory is what `rss_peak_mib` reports; its time is the layer metric
/// `exp.fig8_ms`.
pub const ENDURANCE: &str = "fig8";

/// Which experiments a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Select {
    /// Every experiment but `measured`.
    All,
    /// The timed set: `All` without the endurance simulation.
    Timed,
    /// The endurance simulation alone.
    Endurance,
}

/// The experiments of one pass, in registry order.
pub fn experiments(select: Select) -> impl Iterator<Item = &'static dyn Experiment> {
    REGISTRY.iter().copied().filter(move |e| match select {
        Select::All => e.id() != EXCLUDED,
        Select::Timed => e.id() != EXCLUDED && e.id() != ENDURANCE,
        Select::Endurance => e.id() == ENDURANCE,
    })
}

/// One serial pass over the registry.
pub struct Pass {
    /// Rendered text of every experiment, in registry order.
    pub blocks: Vec<(&'static str, String)>,
    /// Run + render wall time charged to each experiment, milliseconds. A
    /// shared run is charged to the first experiment of its group.
    pub ms: Vec<(&'static str, f64)>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
}

impl Pass {
    /// Milliseconds charged to experiment `id` (0 if it did not run).
    pub fn ms_of(&self, id: &str) -> f64 {
        self.ms
            .iter()
            .find(|(e, _)| *e == id)
            .map_or(0.0, |&(_, ms)| ms)
    }

    /// Experiments whose rendered block is empty.
    pub fn empty_blocks(&self) -> Vec<&'static str> {
        self.blocks
            .iter()
            .filter(|(_, text)| text.trim().is_empty())
            .map(|&(id, _)| id)
            .collect()
    }
}

/// Run the selected experiments at `scale`, one after the other, executing
/// each shared-run group once as `repro all` does.
pub fn run_serial(scale: Scale, select: Select) -> Pass {
    let t_pass = Instant::now();
    let mut reports: HashMap<&'static str, Report> = HashMap::new();
    let mut blocks = Vec::new();
    let mut ms = Vec::new();
    for exp in experiments(select) {
        let t = Instant::now();
        let report = reports
            .entry(exp.shared_run_key())
            .or_insert_with(|| exp.run(scale));
        blocks.push((exp.id(), exp.render(report)));
        ms.push((exp.id(), t.elapsed().as_secs_f64() * 1e3));
    }
    Pass {
        blocks,
        ms,
        wall_s: t_pass.elapsed().as_secs_f64(),
    }
}

/// Run every shared-run group of the timed set on a `jobs`-worker pool (no
/// rendering); returns the wall time in seconds.
pub fn run_pooled_s(scale: Scale, jobs: usize) -> f64 {
    let mut groups: Vec<&'static dyn Experiment> = Vec::new();
    for exp in experiments(Select::Timed) {
        if !groups
            .iter()
            .any(|g| g.shared_run_key() == exp.shared_run_key())
        {
            groups.push(exp);
        }
    }
    let t = Instant::now();
    let pool = falkon_pool::Pool::new(jobs);
    pool.install(|| {
        falkon_pool::scope(|s| {
            for exp in &groups {
                s.spawn(move || {
                    std::hint::black_box(exp.run(scale));
                });
            }
        });
    });
    t.elapsed().as_secs_f64()
}
