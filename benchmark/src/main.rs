//! `falkon-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (see `cli.rs` for the other flags).

use falkon_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let code = falkon_benchmark::cli::main(std::env::args().skip(1).collect());
    // `exit` rather than returning: after a watchdog expiry the abandoned
    // trial's threads are still blocked, and they must not keep the
    // process alive.
    std::process::exit(code);
}
