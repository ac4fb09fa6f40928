//! Bounded free-list of connection buffers.
//!
//! Every TCP connection owns three byte buffers — the frame cursor's
//! receive buffer, the coalesced outbound batch buffer, and the secure
//! path's encode scratch. They are sized by traffic (typically one socket
//! read's worth, 64 KiB), so deployments that churn connections — the
//! 1000-connection fan-out harness tears down and redials its whole fleet
//! per iteration — would otherwise pay thousands of fresh allocations per
//! wave. Instead, [`Conn::establish`](crate::tcp::Conn) draws buffers from
//! this pool and the connection halves return them on drop.
//!
//! The pool is bounded two ways: a per-buffer capacity cap (an MB-scale
//! burst buffer is dropped rather than hoarded) and a total-bytes budget
//! across the pool, so idle capacity never exceeds a fixed ceiling no
//! matter how many connections a run churned. Handing out a buffer never
//! blocks beyond the one uncontended mutex; lock scope is push/pop only.

use std::sync::Mutex;

/// Largest buffer capacity worth recycling. Buffers grown past this by a
/// burst are dropped on return, so one pathological connection cannot pin
/// megabytes in the pool.
const MAX_BUF_BYTES: usize = 256 * 1024;

/// Total idle capacity the pool may hold across all buffers.
const MAX_POOL_BYTES: usize = 32 * 1024 * 1024;

struct Pool {
    bufs: Vec<Vec<u8>>,
    /// Sum of `capacity()` over `bufs`, bounded by [`MAX_POOL_BYTES`].
    bytes: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    bufs: Vec::new(),
    bytes: 0,
});

/// Draw a recycled buffer (empty, capacity retained) or a fresh empty one.
pub(crate) fn take() -> Vec<u8> {
    let Ok(mut pool) = POOL.lock() else {
        return Vec::new();
    };
    match pool.bufs.pop() {
        Some(buf) => {
            pool.bytes -= buf.capacity();
            buf
        }
        None => Vec::new(),
    }
}

/// Return a buffer to the pool. Cleared before pooling; dropped instead if
/// it is trivially small, oversized, or the pool is at its byte budget.
pub(crate) fn give(mut buf: Vec<u8>) {
    let cap = buf.capacity();
    if cap == 0 || cap > MAX_BUF_BYTES {
        return;
    }
    buf.clear();
    if let Ok(mut pool) = POOL.lock() {
        if pool.bytes + cap <= MAX_POOL_BYTES {
            pool.bytes += cap;
            pool.bufs.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_capacity() {
        give(Vec::with_capacity(4096));
        let buf = take();
        // Another test may have raced the pool, but whatever we got back is
        // empty and usable.
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        // Returning a huge buffer must not let the pool hoard it: the pool's
        // accounted bytes never exceed the budget, and a single buffer over
        // the per-buffer cap is rejected outright.
        give(Vec::with_capacity(MAX_BUF_BYTES + 1));
        let guard = POOL.lock().unwrap();
        assert!(guard.bytes <= MAX_POOL_BYTES);
        assert!(guard.bufs.iter().all(|b| b.capacity() <= MAX_BUF_BYTES));
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let before = POOL.lock().unwrap().bufs.len();
        give(Vec::new());
        assert!(POOL.lock().unwrap().bufs.len() <= before);
    }
}
