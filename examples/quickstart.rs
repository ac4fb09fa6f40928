//! Quickstart: run a Falkon deployment on loopback sockets and measure
//! dispatch throughput on your machine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Starts a dispatcher server and eight executor threads connected to it
//! over localhost TCP, submits 20,000 `sleep 0` tasks in bundles of 300
//! with piggy-backing enabled (the paper's recommended configuration), and
//! prints throughput with and without the security layer; every hop
//! encodes its messages either way.

use falkon::core::DispatcherConfig;
use falkon::proto::bundle::BundleConfig;
use falkon::rt::inproc::{run_sleep_workload, InprocConfig};
use falkon::rt::WireMode;

fn main() {
    let tasks = 20_000;
    println!("Falkon quickstart: {tasks} x `sleep 0` tasks, 8 executors\n");
    for (label, wire) in [
        ("encoded    (binary codec every hop)  ", WireMode::Encoded),
        ("secure     (authenticated encryption)", WireMode::Secure),
    ] {
        let config = InprocConfig {
            executors: 8,
            wire,
            bundle: BundleConfig::of(300),
            dispatcher: DispatcherConfig {
                client_notify_batch: 1_000,
                ..DispatcherConfig::default()
            },
            ..InprocConfig::default()
        };
        let out = run_sleep_workload(&config, tasks, 0);
        println!(
            "{label}  {:>9.0} tasks/s   ({} completed, {} piggy-backed, {} notifies)",
            out.throughput, out.tasks, out.stats.piggybacked, out.stats.notifies
        );
    }
    println!(
        "\nThe paper's Java/SOAP dispatcher measured 487 tasks/s (no security) and\n\
         204 tasks/s (GSISecureConversation) on a 2007 dual-Xeon; a binary codec\n\
         on modern hardware is orders of magnitude faster, but the *ratio* between\n\
         secure and plain transports is the same phenomenon."
    );
}
