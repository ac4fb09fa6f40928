//! The paper's fMRI case study (Section 5.1, Figure 14): the same AIRSN
//! pipeline executed three ways — per-task GRAM4+PBS jobs, clustered
//! GRAM4+PBS jobs, and Falkon — all in simulated time.
//!
//! ```sh
//! cargo run --release --example fmri_pipeline
//! ```

use falkon::exp::lrm::profile::PBS_V2_1_8;
use falkon::exp::providers::{FalkonProvider, GramProvider};
use falkon::exp::simfalkon::SimFalkonConfig;
use falkon::exp::workflow::apps::fmri;
use falkon::exp::workflow::engine::WorkflowEngine;

fn main() {
    println!("fMRI AIRSN pipeline (4 stages per volume), end-to-end time:\n");
    println!(
        "{:>8} {:>7} {:>14} {:>14} {:>14} {:>10}",
        "volumes", "tasks", "GRAM4+PBS (s)", "clustered (s)", "Falkon (s)", "reduction"
    );
    for &volumes in &fmri::PROBLEM_SIZES {
        let dag = fmri::dag(volumes);

        let mut gram = GramProvider::new(PBS_V2_1_8, 62);
        let gram_s = WorkflowEngine::new().run(&dag, &mut gram).makespan_s();

        let cluster = (volumes as usize).div_ceil(8);
        let mut clustered = GramProvider::new(PBS_V2_1_8, 62);
        let clustered_s = WorkflowEngine::with_clustering(cluster)
            .run(&dag, &mut clustered)
            .makespan_s();

        let mut falkon = FalkonProvider::new(SimFalkonConfig {
            executors: 8,
            ..SimFalkonConfig::default()
        });
        let falkon_s = WorkflowEngine::new().run(&dag, &mut falkon).makespan_s();

        println!(
            "{volumes:>8} {:>7} {gram_s:>14.0} {clustered_s:>14.0} {falkon_s:>14.0} {:>9.0}%",
            dag.len(),
            (1.0 - falkon_s / gram_s) * 100.0
        );
    }
    println!(
        "\nPaper: clustering cut execution by >4x on 8 processors; Falkon cut it\n\
         further — up to 90% end-to-end reduction vs per-task GRAM4+PBS."
    );
}
