//! A wall-clock bound on one deployment, for every socket suite (the root
//! package's `tests/tcp_*.rs` and `falkon-rt`'s `alloc_steady`).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Wall time a socket deployment may take before its test fails. The
/// slowest, a secure handshake that waits out a silent peer's 10 s
/// patience, takes about 10 s; a deployment that a broken deadline stalls
/// fails here instead of hanging its suite.
pub const DEPLOYMENT_LIMIT: Duration = Duration::from_secs(60);

/// Run `f` on a thread of its own and return its value, failing if it has
/// not returned within `limit`. The thread is then abandoned, not joined:
/// it may be blocked on a peer that never answers, and the test process
/// ends it. A panic in `f` fails the test as it would have.
pub fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    // Named after the test, which a failure then names.
    let name = thread::current().name().unwrap_or("within").to_owned();
    let worker = thread::Builder::new()
        .name(name)
        .spawn(move || {
            // The receiver is gone only after a timeout; nothing to do then.
            let _ = tx.send(f());
        })
        .expect("spawn the deployment's thread");
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("returned a value");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
    }
}
