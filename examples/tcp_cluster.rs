//! A real Falkon deployment over TCP on localhost.
//!
//! ```sh
//! cargo run --release --example tcp_cluster
//! ```
//!
//! Starts the dispatcher server, connects four executor processes (threads
//! here, one socket each), runs a client workload through the full
//! Figure 2 message sequence — registration, notification, work pull,
//! result delivery with piggy-backing — then demonstrates the distributed
//! resource-release policy: executors deregister themselves after 300 ms
//! of idleness.

use falkon::core::executor::ExecutorConfig;
use falkon::core::DispatcherConfig;
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::ExecutorId;
use falkon::proto::task::TaskSpec;
use falkon::rt::tcp::{run_client, run_executor, DispatcherServer, ServerConfig};
use std::thread;

fn main() -> std::io::Result<()> {
    // Security on: every connection handshakes and seals all frames.
    let security = Some(0xFA1C0);
    // The server is one thread multiplexing every connection; OS thread
    // count does not grow with the number of peers.
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 100,
            ..DispatcherConfig::default()
        })
        .security(security)
        .build()
        .expect("valid config");
    let server = DispatcherServer::start(config)?;
    let addr = server.addr;
    println!("dispatcher listening on {addr}");

    let mut executors = Vec::new();
    for i in 0..4 {
        let cfg = ExecutorConfig {
            idle_release_us: Some(300_000), // distributed release after 300 ms idle
            prefetch: false,
        };
        executors.push(thread::spawn(move || {
            run_executor(addr, ExecutorId(i), cfg, security)
        }));
    }

    let tasks: Vec<TaskSpec> = (0..2_000).map(|i| TaskSpec::sleep(i, 0)).collect();
    let client = run_client(addr, tasks, BundleConfig::of(100), security)?;
    println!(
        "client: {} tasks complete in {:.2}s  ({:.0} tasks/s over real sockets)",
        client.done,
        client.elapsed_us as f64 / 1e6,
        client.done as f64 / (client.elapsed_us as f64 / 1e6)
    );

    // Idle release: executors deregister themselves and exit.
    let mut total_run = 0;
    for e in executors {
        total_run += e.join().expect("executor thread")?.tasks;
    }
    println!("executors self-released after idling; tasks run per pool: {total_run}");

    let (records, stats, _obs) = server.shutdown();
    println!(
        "dispatcher: {} records, {} piggy-backed, {} retries, {} duplicates",
        records.len(),
        stats.piggybacked,
        stats.retries,
        stats.duplicate_results
    );
    Ok(())
}
