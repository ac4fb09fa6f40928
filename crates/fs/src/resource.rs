//! A bank of FIFO I/O servers.
//!
//! Requests are assigned to the earliest-free server in the bank; each
//! request occupies its server for `op_cost + bytes / bandwidth`. With k
//! servers this caps the operation rate at `k / op_cost` and the aggregate
//! bandwidth at `k × bandwidth` — the two regimes visible in Figure 4.

use crate::Micros;

/// A bank of identical FIFO servers (e.g. the 8 GPFS I/O nodes).
#[derive(Clone, Debug)]
pub struct IoResource {
    /// Each server's next-free time.
    free_at: Vec<Micros>,
    /// Default per-byte service rate, bytes/sec.
    bandwidth_bps: f64,
    /// Default fixed cost per operation, µs.
    op_cost_us: Micros,
    /// Total busy time accumulated (for utilization reporting).
    pub busy_us: u64,
}

impl IoResource {
    /// Create a bank of `servers` servers.
    pub fn new(servers: u32, bandwidth_bps: f64, op_cost_us: Micros) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        IoResource {
            free_at: vec![0; servers as usize],
            bandwidth_bps,
            op_cost_us,
            busy_us: 0,
        }
    }

    /// Number of servers in the bank.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Issue a request with the default rate/op-cost; returns completion time.
    pub fn request(&mut self, now: Micros, bytes: u64) -> Micros {
        self.request_with(now, bytes, self.bandwidth_bps, self.op_cost_us)
    }

    /// Issue a request with explicit rate/op-cost (local disks use different
    /// costs for reads and writes on the same spindle).
    pub fn request_with(
        &mut self,
        now: Micros,
        bytes: u64,
        bandwidth_bps: f64,
        op_cost_us: Micros,
    ) -> Micros {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("non-empty bank");
        let start = self.free_at[idx].max(now);
        let transfer_us = (bytes as f64 / bandwidth_bps * 1e6).ceil() as Micros;
        let busy = op_cost_us + transfer_us;
        let done = start + busy;
        self.free_at[idx] = done;
        self.busy_us += busy;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_up_to_server_count() {
        let mut r = IoResource::new(4, 1e6, 0);
        // Four 1 MB requests at 1 MB/s each finish at t=1s in parallel.
        for _ in 0..4 {
            assert_eq!(r.request(0, 1_000_000), 1_000_000);
        }
        // The fifth queues behind one of them.
        assert_eq!(r.request(0, 1_000_000), 2_000_000);
    }

    #[test]
    fn op_cost_bounds_small_request_rate() {
        let mut r = IoResource::new(2, 1e9, 1_000);
        let mut last = 0;
        for _ in 0..10 {
            last = r.request(0, 1);
        }
        // 10 ops on 2 servers at 1 ms each → 5 ms.
        assert!((5_000..6_100).contains(&last), "last = {last}");
    }

    #[test]
    fn later_now_delays_start() {
        let mut r = IoResource::new(1, 1e6, 0);
        assert_eq!(r.request(5_000_000, 1_000_000), 6_000_000);
    }

    #[test]
    fn busy_accounting() {
        let mut r = IoResource::new(1, 1e6, 500);
        r.request(0, 1_000_000);
        assert_eq!(r.busy_us, 1_000_500);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        IoResource::new(0, 1.0, 0);
    }
}
