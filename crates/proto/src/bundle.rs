//! Task bundling (paper Section 3.4).
//!
//! Real grid workloads submit tasks in batches; bundling many tasks per
//! submit message amortizes per-message cost. The paper finds throughput
//! rising from ~20 tasks/sec unbundled to ~1,500 tasks/sec at the optimum,
//! then degrading past ~300 tasks per bundle due to the Axis serialization
//! pathology (see [`crate::codec::AxisCodec`]).

use crate::task::TaskSpec;
use serde::{Deserialize, Serialize};

/// Client-side bundling configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BundleConfig {
    /// Maximum tasks per submit message. 1 disables bundling.
    pub max_bundle: usize,
}

impl Default for BundleConfig {
    fn default() -> Self {
        // The paper's measured optimum is around 300 tasks per bundle.
        BundleConfig { max_bundle: 300 }
    }
}

impl BundleConfig {
    /// Bundles of at most `n` tasks.
    pub fn of(n: usize) -> Self {
        assert!(n > 0, "bundle size must be positive");
        BundleConfig { max_bundle: n }
    }
}

/// Split `tasks` into bundles of at most `max_bundle`, preserving order.
pub fn bundles(tasks: Vec<TaskSpec>, max_bundle: usize) -> Vec<Vec<TaskSpec>> {
    assert!(max_bundle > 0, "bundle size must be positive");
    if tasks.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(tasks.len().div_ceil(max_bundle));
    let mut cur = Vec::with_capacity(max_bundle.min(tasks.len()));
    for t in tasks {
        cur.push(t);
        if cur.len() == max_bundle {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(n: u64) -> Vec<TaskSpec> {
        (0..n).map(|i| TaskSpec::sleep(i, 0)).collect()
    }

    #[test]
    fn splits_evenly() {
        let b = bundles(tasks(10), 5);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.len() == 5));
    }

    #[test]
    fn last_bundle_may_be_short() {
        let b = bundles(tasks(7), 3);
        assert_eq!(b.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 1]);
    }

    #[test]
    fn preserves_order_and_multiset() {
        let b = bundles(tasks(100), 7);
        let flat: Vec<u64> = b.into_iter().flatten().map(|t| t.id.0).collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_no_bundles() {
        assert!(bundles(Vec::new(), 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bundle_size_panics() {
        bundles(tasks(1), 0);
    }

    #[test]
    fn config_constructors() {
        assert_eq!(BundleConfig::default().max_bundle, 300);
        assert_eq!(BundleConfig::of(42).max_bundle, 42);
    }
}
