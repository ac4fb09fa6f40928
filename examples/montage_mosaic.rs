//! The paper's Montage case study (Section 5.2, Figure 15): building the
//! 3°×3° M16 mosaic DAG (487 images, 2,200 overlaps) and executing it via
//! clustered GRAM4+PBS and Falkon, with the MPI estimate for comparison.
//!
//! ```sh
//! cargo run --release --example montage_mosaic
//! ```

use falkon::exp::lrm::profile::PBS_V2_1_8;
use falkon::exp::providers::{FalkonProvider, GramProvider};
use falkon::exp::simfalkon::SimFalkonConfig;
use falkon::exp::workflow::apps::montage;
use falkon::exp::workflow::engine::WorkflowEngine;

fn main() {
    let dag = montage::dag();
    println!("Montage M16 mosaic DAG:");
    for (stage, n, cpu_us) in dag.stage_histogram() {
        println!(
            "  {stage:<12} {n:>5} tasks   {:>7.0} CPU-s",
            cpu_us as f64 / 1e6
        );
    }
    println!(
        "  total: {} tasks, critical path {:.0} s\n",
        dag.len(),
        dag.critical_path_us() as f64 / 1e6
    );

    let workers = 64;
    let mut gram = GramProvider::new(PBS_V2_1_8, workers);
    let gram_report = WorkflowEngine::with_clustering(32).run(&dag, &mut gram);

    let mut falkon = FalkonProvider::new(SimFalkonConfig {
        executors: workers,
        executors_per_node: 2,
        ..SimFalkonConfig::default()
    });
    let falkon_report = WorkflowEngine::new().run(&dag, &mut falkon);

    let mpi_s = montage::mpi_makespan_us(workers, 12_000_000) as f64 / 1e6;

    println!("end-to-end on {workers} workers:");
    println!(
        "  GRAM4+PBS (clustered) {:>8.0} s",
        gram_report.makespan_s()
    );
    println!(
        "  Swift+Falkon          {:>8.0} s",
        falkon_report.makespan_s()
    );
    println!("  MPI (estimated)       {:>8.0} s", mpi_s);
    println!(
        "\nPaper: Swift+Falkon ran within ~5% of the hand-written MPI version\n\
         (1,067 s vs 1,120 s excluding the final co-add) and far ahead of the\n\
         GRAM4+PBS baseline."
    );
}
