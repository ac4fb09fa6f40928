//! Testbed platform profiles (paper Table 1).
//!
//! The simulated experiments bind component cost models to one of these
//! profiles so that, e.g., the dispatcher's per-message CPU cost reflects the
//! `UC_x64` machine the paper ran it on, and executor counts respect the node
//! inventories of the TeraGrid clusters.

use serde::{Deserialize, Serialize};

/// One row of Table 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Site name as used in the paper.
    pub name: &'static str,
    /// Number of nodes at the site.
    pub nodes: u32,
    /// Processors (cores) per node; the paper maps one executor per processor.
    pub cpus_per_node: u32,
    /// Human-readable processor description.
    pub processors: &'static str,
    /// Memory per node, GB.
    pub memory_gb: u32,
    /// Network link speed in Mb/s.
    pub network_mbps: u32,
}

/// `TG_ANL_IA32`: 98 dual-Xeon 2.4 GHz nodes, 4 GB, 1 Gb/s.
pub const TG_ANL_IA32: Platform = Platform {
    name: "TG_ANL_IA32",
    nodes: 98,
    cpus_per_node: 2,
    processors: "Dual Xeon 2.4GHz",
    memory_gb: 4,
    network_mbps: 1000,
};

/// `TG_ANL_IA64`: 64 dual-Itanium 1.5 GHz nodes, 4 GB, 1 Gb/s.
pub const TG_ANL_IA64: Platform = Platform {
    name: "TG_ANL_IA64",
    nodes: 64,
    cpus_per_node: 2,
    processors: "Dual Itanium 1.5GHz",
    memory_gb: 4,
    network_mbps: 1000,
};

/// `TP_UC_x64`: 122 dual-Opteron 2.2 GHz nodes, 4 GB, 1 Gb/s.
pub const TP_UC_X64: Platform = Platform {
    name: "TP_UC_x64",
    nodes: 122,
    cpus_per_node: 2,
    processors: "Dual Opteron 2.2GHz",
    memory_gb: 4,
    network_mbps: 1000,
};

/// `UC_x64`: the single dispatcher host (dual Xeon 3 GHz w/ HT, 2 GB).
pub const UC_X64: Platform = Platform {
    name: "UC_x64",
    nodes: 1,
    cpus_per_node: 2,
    processors: "Dual Xeon 3GHz w/ HT",
    memory_gb: 2,
    network_mbps: 100,
};

/// `UC_IA32`: single P4 2.4 GHz client host.
pub const UC_IA32: Platform = Platform {
    name: "UC_IA32",
    nodes: 1,
    cpus_per_node: 1,
    processors: "Intel P4 2.4GHz",
    memory_gb: 1,
    network_mbps: 100,
};

/// All Table 1 rows in paper order.
pub const ALL: [&Platform; 5] = [&TG_ANL_IA32, &TG_ANL_IA64, &TP_UC_X64, &UC_X64, &UC_IA32];

/// Of the 162 TG_ANL nodes, 128 were free for the paper's experiments.
pub const TG_ANL_FREE_NODES: u32 = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_slots_match_paper() {
        // 64 IA64 nodes × 2 CPUs = 128 executors (the Fig. 4 configuration)
        assert_eq!(TG_ANL_IA64.nodes * TG_ANL_IA64.cpus_per_node, 128);
        assert_eq!(UC_IA32.nodes * UC_IA32.cpus_per_node, 1);
    }

    #[test]
    fn table1_inventory() {
        assert_eq!(ALL.len(), 5);
        let total_tg_anl = TG_ANL_IA32.nodes + TG_ANL_IA64.nodes;
        assert_eq!(total_tg_anl, 162);
        assert!(TG_ANL_FREE_NODES < total_tg_anl);
    }
}
