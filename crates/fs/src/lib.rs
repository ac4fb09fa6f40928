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

pub mod resource;

pub use resource::IoResource;

use falkon_proto::task::{DataAccess, DataLocation, DataSpec};

/// Microsecond timestamps, matching `falkon-core`.
pub type Micros = u64;

/// Calibrated I/O cost parameters for one deployment.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FsConfig {
    /// GPFS I/O node count (8 in the paper's testbed).
    pub gpfs_io_nodes: u32,
    /// GPFS aggregate read bandwidth, bytes/sec.
    pub gpfs_read_bps: f64,
    /// GPFS aggregate write bandwidth, bytes/sec.
    pub gpfs_write_bps: f64,
    /// Fixed GPFS cost per read operation (metadata + request), µs.
    pub gpfs_read_op_us: Micros,
    /// Fixed GPFS cost per write operation (allocation, token churn), µs.
    pub gpfs_write_op_us: Micros,
    /// Local-disk read bandwidth per node, bytes/sec.
    pub local_read_bps: f64,
    /// Local-disk write bandwidth per node, bytes/sec.
    pub local_write_bps: f64,
    /// Fixed local cost per read operation, µs.
    pub local_read_op_us: Micros,
    /// Fixed local cost per write operation, µs.
    pub local_write_op_us: Micros,
}

impl Default for FsConfig {
    fn default() -> Self {
        // Calibrated to the Figure 4 plateaus (Mb/s → bytes/s is ×125,000).
        FsConfig {
            gpfs_io_nodes: 8,
            gpfs_read_bps: 3_067.0 * 125_000.0, // ≈383 MB/s aggregate
            gpfs_write_bps: 165.0 * 125_000.0,  // writes starve: ≈21 MB/s
            gpfs_read_op_us: 5_000,             // 5 ms per read op
            gpfs_write_op_us: 50_000,           // 50 ms → ≈160 writes/s on 8 nodes
            local_read_bps: 813.0 * 125_000.0,  // ≈102 MB/s per node
            local_write_bps: 420.0 * 125_000.0, // ≈53 MB/s per node
            local_read_op_us: 100,
            local_write_op_us: 1_000,
        }
    }
}

/// Data-staging model for one cluster: a GPFS bank shared by all nodes plus
/// one local-disk resource per compute node.
pub struct ClusterFs {
    config: FsConfig,
    gpfs_read: IoResource,
    gpfs_write: IoResource,
    local: Vec<IoResource>,
    /// Total bytes moved (for Mb/s reporting).
    pub bytes_transferred: u64,
}

impl ClusterFs {
    /// Build the model for `nodes` compute nodes.
    pub fn new(config: FsConfig, nodes: u32) -> Self {
        let per_io_node_read = config.gpfs_read_bps / config.gpfs_io_nodes as f64;
        let per_io_node_write = config.gpfs_write_bps / config.gpfs_io_nodes as f64;
        ClusterFs {
            config,
            gpfs_read: IoResource::new(
                config.gpfs_io_nodes,
                per_io_node_read,
                config.gpfs_read_op_us,
            ),
            gpfs_write: IoResource::new(
                config.gpfs_io_nodes,
                per_io_node_write,
                config.gpfs_write_op_us,
            ),
            local: (0..nodes)
                .map(|_| IoResource::new(1, config.local_read_bps, config.local_read_op_us))
                .collect(),
            bytes_transferred: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> FsConfig {
        self.config
    }

    /// Number of compute nodes modelled.
    pub fn nodes(&self) -> usize {
        self.local.len()
    }

    /// Perform the staging a task requires before/after compute: returns the
    /// completion time of all its I/O, starting at `now`, on compute node
    /// `node`.
    pub fn stage(&mut self, now: Micros, node: usize, data: DataSpec) -> Micros {
        match data.location {
            DataLocation::SharedFs => {
                let read_done = self.gpfs_read.request(now, data.bytes);
                self.bytes_transferred += data.bytes;
                match data.access {
                    DataAccess::Read => read_done,
                    DataAccess::ReadWrite => {
                        self.bytes_transferred += data.bytes;
                        self.gpfs_write.request(read_done, data.bytes)
                    }
                }
            }
            DataLocation::LocalDisk => {
                let idx = node % self.local.len().max(1);
                let disk = &mut self.local[idx];
                // Local read at read cost…
                let read_done = disk.request_with(
                    now,
                    data.bytes,
                    self.config.local_read_bps,
                    self.config.local_read_op_us,
                );
                self.bytes_transferred += data.bytes;
                match data.access {
                    DataAccess::Read => read_done,
                    DataAccess::ReadWrite => {
                        self.bytes_transferred += data.bytes;
                        // …then write-back at write cost on the same spindle.
                        disk.request_with(
                            read_done,
                            data.bytes,
                            self.config.local_write_bps,
                            self.config.local_write_op_us,
                        )
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
        let mut fs = ClusterFs::new(FsConfig::default(), 64);
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
        let mut fs = ClusterFs::new(FsConfig::default(), 64);
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
        let mut fs = ClusterFs::new(FsConfig::default(), 64);
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
        let mut fs = ClusterFs::new(FsConfig::default(), 64);
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
        let mut fs = ClusterFs::new(FsConfig::default(), 4);
        let mb = 1u64 << 20;
        let r = fs.stage(0, 0, spec(mb, DataLocation::LocalDisk, DataAccess::Read));
        let mut fs2 = ClusterFs::new(FsConfig::default(), 4);
        let rw = fs2.stage(
            0,
            0,
            spec(mb, DataLocation::LocalDisk, DataAccess::ReadWrite),
        );
        assert!(rw > r);
    }

    #[test]
    fn same_node_requests_serialize_on_local_disk() {
        let mut fs = ClusterFs::new(FsConfig::default(), 2);
        let mb10 = 10u64 << 20;
        let a = fs.stage(0, 0, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        let b = fs.stage(0, 0, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        let c = fs.stage(0, 1, spec(mb10, DataLocation::LocalDisk, DataAccess::Read));
        assert!(b > a, "same-node requests must queue");
        assert_eq!(c, a, "different nodes do not contend");
    }

    #[test]
    fn bytes_accounting() {
        let mut fs = ClusterFs::new(FsConfig::default(), 1);
        fs.stage(
            0,
            0,
            spec(100, DataLocation::SharedFs, DataAccess::ReadWrite),
        );
        assert_eq!(fs.bytes_transferred, 200);
        fs.stage(0, 0, spec(50, DataLocation::LocalDisk, DataAccess::Read));
        assert_eq!(fs.bytes_transferred, 250);
    }
}
