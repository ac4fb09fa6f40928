//! Identifier types used across Falkon components.
//!
//! Executor/instance/task ids live in `falkon-proto` because they appear on
//! the wire; this module re-exports them and adds ids that never leave the
//! control plane.

pub use falkon_proto::message::{ExecutorId, InstanceId, NotifyKey};
pub use falkon_proto::task::TaskId;

use std::fmt;

/// One resource allocation granted by an LRM (a single first-level request;
/// Table 4 counts these).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocationId(pub u64);

impl fmt::Debug for AllocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_id_debug() {
        assert_eq!(format!("{:?}", AllocationId(5)), "alloc#5");
    }
}
