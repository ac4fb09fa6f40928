//! Shared- and local-filesystem data-staging models (paper Section 4.2).
//!
//! The Figure 4 experiments run tasks that read (or read and write) between
//! 1 B and 1 GB from either the GPFS shared filesystem (8 I/O nodes in the
//! paper's testbed) or the compute node's local disk. Observed plateaus:
//!
//! | configuration     | plateau (Mb/s) |
//! |-------------------|----------------|
//! | GPFS read+write   | 326            |
//! | GPFS read         | 3,067          |
//! | LOCAL read+write  | 32,667         |
//! | LOCAL read        | 52,015         |
//!
//! and GPFS read+write saturated at ≈150 tasks/sec even for 1-byte data,
//! because 128 concurrent writers overwhelm the 8 I/O nodes.
//!
//! We model each filesystem as a small bank of servers (8 I/O nodes for
//! GPFS, one disk per compute node locally) with a fixed per-operation
//! service cost plus a per-byte cost. A staging request is assigned to the
//! earliest-free server; the reply time is when that server finishes. This
//! FIFO-bank approximation reproduces both the small-size op-rate ceilings
//! and the large-size bandwidth plateaus.

mod resource;

use crate::Micros;
use falkon_proto::task::{DataAccess, DataLocation, DataSpec};
use resource::IoResource;

/// GPFS I/O nodes in the paper's testbed (§4.2).
const GPFS_IO_NODES: u32 = 8;
/// GPFS aggregate read bandwidth, bytes/sec: Figure 4's 3,067 Mb/s read
/// plateau (Mb/s → bytes/s is ×125,000), ≈383 MB/s.
const GPFS_READ_BPS: f64 = 3_067.0 * 125_000.0;
/// GPFS aggregate write bandwidth, bytes/sec: writes starve at ≈21 MB/s,
/// which puts read+write near Figure 4's 326 Mb/s plateau.
const GPFS_WRITE_BPS: f64 = 165.0 * 125_000.0;
/// Fixed GPFS cost per read operation (metadata + request), µs: 8 I/O
/// nodes at 5 ms serve ≈1,600 small reads/s (Figure 4).
const GPFS_READ_OP_US: Micros = 5_000;
/// Fixed GPFS cost per write operation (allocation, token churn), µs: 8
/// I/O nodes at 50 ms serve ≈160 writes/s, the ≈150 tasks/s read+write
/// ceiling of §4.2.
const GPFS_WRITE_OP_US: Micros = 50_000;
/// Local-disk read bandwidth per node, bytes/sec: 64 nodes make Figure 4's
/// 52,015 Mb/s LOCAL read plateau, ≈102 MB/s each.
const LOCAL_READ_BPS: f64 = 813.0 * 125_000.0;
/// Local-disk write bandwidth per node, bytes/sec (≈53 MB/s): the LOCAL
/// read+write curve of Figure 4.
const LOCAL_WRITE_BPS: f64 = 420.0 * 125_000.0;
/// Fixed local cost per read operation, µs: small beside GPFS's, so the
/// LOCAL curves of Figure 4 stay bandwidth-bound.
const LOCAL_READ_OP_US: Micros = 100;
/// Fixed local cost per write operation, µs (Figure 4's LOCAL read+write).
const LOCAL_WRITE_OP_US: Micros = 1_000;

/// Data-staging model for one cluster: a GPFS bank shared by all nodes plus
/// one local-disk resource per compute node.
pub(crate) struct ClusterFs {
    gpfs_read: IoResource,
    gpfs_write: IoResource,
    local: Vec<IoResource>,
}

impl ClusterFs {
    /// Build the model for `nodes` compute nodes.
    pub(crate) fn new(nodes: u32) -> Self {
        let per_io_node = |bps: f64| bps / GPFS_IO_NODES as f64;
        ClusterFs {
            gpfs_read: IoResource::new(GPFS_IO_NODES, per_io_node(GPFS_READ_BPS), GPFS_READ_OP_US),
            gpfs_write: IoResource::new(
                GPFS_IO_NODES,
                per_io_node(GPFS_WRITE_BPS),
                GPFS_WRITE_OP_US,
            ),
            local: (0..nodes)
                .map(|_| IoResource::new(1, LOCAL_READ_BPS, LOCAL_READ_OP_US))
                .collect(),
        }
    }

    /// Perform the staging a task requires before/after compute: returns the
    /// completion time of all its I/O, starting at `now`, on compute node
    /// `node`.
    pub(crate) fn stage(&mut self, now: Micros, node: usize, data: DataSpec) -> Micros {
        match data.location {
            DataLocation::SharedFs => {
                let read_done = self.gpfs_read.request(now, data.bytes);
                match data.access {
                    DataAccess::Read => read_done,
                    DataAccess::ReadWrite => self.gpfs_write.request(read_done, data.bytes),
                }
            }
            DataLocation::LocalDisk => {
                let idx = node % self.local.len().max(1);
                let disk = &mut self.local[idx];
                // Local read at read cost…
                let read_done =
                    disk.request_with(now, data.bytes, LOCAL_READ_BPS, LOCAL_READ_OP_US);
                match data.access {
                    DataAccess::Read => read_done,
                    // …then write-back at write cost on the same spindle.
                    DataAccess::ReadWrite => {
                        disk.request_with(read_done, data.bytes, LOCAL_WRITE_BPS, LOCAL_WRITE_OP_US)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bytes: u64, location: DataLocation, access: DataAccess) -> DataSpec {
        DataSpec {
            object: 0,
            bytes,
            location,
            access,
        }
    }

    #[test]
    fn tiny_gpfs_reads_are_op_bound() {
        let mut fs = ClusterFs::new(64);
        // 8 I/O nodes at 5 ms per op → ≈1,600 ops/s steady state.
        let mut done_times = Vec::new();
        for _ in 0..160 {
            done_times.push(fs.stage(0, 0, spec(1, DataLocation::SharedFs, DataAccess::Read)));
        }
        let span_s = (*done_times.iter().max().unwrap()) as f64 / 1e6;
        let rate = 160.0 / span_s;
        assert!((1_400.0..1_800.0).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn tiny_gpfs_writes_cap_near_150_per_sec() {
        let mut fs = ClusterFs::new(64);
        let mut done_times = Vec::new();
        for _ in 0..80 {
            done_times.push(fs.stage(0, 0, spec(1, DataLocation::SharedFs, DataAccess::ReadWrite)));
        }
        let span_s = (*done_times.iter().max().unwrap()) as f64 / 1e6;
        let rate = 80.0 / span_s;
        // Paper: ≈150 tasks/s ceiling for GPFS read+write at 1 byte.
        assert!((120.0..200.0).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn large_gpfs_reads_hit_bandwidth_plateau() {
        let mut fs = ClusterFs::new(64);
        let gb = 1u64 << 30;
        let mut last = 0;
        for _ in 0..8 {
            last = last.max(fs.stage(0, 0, spec(gb, DataLocation::SharedFs, DataAccess::Read)));
        }
        let span_s = last as f64 / 1e6;
        let mbps = (8.0 * gb as f64 * 8.0 / 1e6) / span_s; // megabits/s
                                                           // Paper plateau: ≈3,067 Mb/s.
        assert!(
            (2_500.0..3_600.0).contains(&mbps),
            "GPFS read = {mbps} Mb/s"
        );
    }

    #[test]
    fn local_disks_scale_with_nodes() {
        let mut fs = ClusterFs::new(64);
        let mb100 = 100u64 << 20;
        let mut last = 0;
        // One 100 MB read per node, all concurrent.
        for node in 0..64 {
            last = last.max(fs.stage(
                0,
                node,
                spec(mb100, DataLocation::LocalDisk, DataAccess::Read),
            ));
        }
        let span_s = last as f64 / 1e6;
        let mbps = (64.0 * mb100 as f64 * 8.0 / 1e6) / span_s;
        // Paper plateau: ≈52,015 Mb/s across 64 nodes.
        assert!(
            (40_000.0..62_000.0).contains(&mbps),
            "local read = {mbps} Mb/s"
        );
    }

    #[test]
    fn read_write_slower_than_read() {
        let mut fs = ClusterFs::new(4);
        let mb = 1u64 << 20;
        let r = fs.stage(0, 0, spec(mb, DataLocation::LocalDisk, DataAccess::Read));
        let mut fs2 = ClusterFs::new(4);
        let rw = fs2.stage(
            0,
            0,
            spec(mb, DataLocation::LocalDisk, DataAccess::ReadWrite),
        );
        assert!(rw > r);
    }

    #[test]
    fn same_node_requests_serialize_on_local_disk() {
        let mut fs = ClusterFs::new(2);
        let mb10 = 10u64 << 20;
        let a = fs.stage(0, 0, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        let b = fs.stage(0, 0, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        let c = fs.stage(0, 1, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        assert!(b > a, "same-node requests must queue");
        assert_eq!(c, a, "different nodes do not contend");
    }
}
