//! The dispatcher's FIFO wait queue, kept bundle by bundle.
//!
//! A submitted bundle stays the buffer it arrived in: the instance, the
//! enqueue time and the attempt count are stored once per bundle, tasks
//! leave from its front, and the buffer is freed when its last task has
//! left. Memory therefore follows the live queue — it is given back bundle
//! by bundle as the queue drains — and accepting a bundle copies no task.
//! A replayed task re-enters as a bundle of one.

use crate::ids::InstanceId;
use crate::Micros;
use falkon_proto::task::TaskSpec;
use std::collections::VecDeque;

/// Tasks that entered the queue together.
struct Batch {
    instance: InstanceId,
    enqueued_us: Micros,
    /// Dispatch attempts already made (0 for a fresh submission).
    attempts: u32,
    /// Never empty while the batch is in the queue.
    tasks: VecDeque<TaskSpec>,
}

/// One task taken off the queue, with its batch's bookkeeping.
pub(crate) struct Queued {
    pub(crate) instance: InstanceId,
    pub(crate) spec: TaskSpec,
    pub(crate) attempts: u32,
    pub(crate) enqueued_us: Micros,
}

#[derive(Default)]
pub(crate) struct WaitQueue {
    batches: VecDeque<Batch>,
    /// Tasks over all batches.
    len: usize,
}

impl WaitQueue {
    /// Queued tasks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `tasks` behind everything queued. An empty bundle leaves
    /// nothing behind.
    pub(crate) fn push(
        &mut self,
        instance: InstanceId,
        enqueued_us: Micros,
        attempts: u32,
        tasks: Vec<TaskSpec>,
    ) {
        if tasks.is_empty() {
            return;
        }
        self.len += tasks.len();
        self.batches.push_back(Batch {
            instance,
            enqueued_us,
            attempts,
            // O(1): the deque takes over the vector's buffer.
            tasks: VecDeque::from(tasks),
        });
    }

    /// Take the task at the front of the queue.
    pub(crate) fn pop_front(&mut self) -> Option<Queued> {
        (!self.batches.is_empty()).then(|| self.take(0, 0))
    }

    /// Take the first of the front `window` tasks that `wanted` accepts.
    pub(crate) fn take_first(
        &mut self,
        window: usize,
        mut wanted: impl FnMut(&TaskSpec) -> bool,
    ) -> Option<Queued> {
        let (b, i) = self
            .batches
            .iter()
            .enumerate()
            .flat_map(|(b, batch)| batch.tasks.iter().enumerate().map(move |(i, t)| (b, i, t)))
            .take(window)
            .find_map(|(b, i, t)| wanted(t).then_some((b, i)))?;
        Some(self.take(b, i))
    }

    fn take(&mut self, b: usize, i: usize) -> Queued {
        let batch = &mut self.batches[b];
        let spec = batch.tasks.remove(i).expect("index within the batch");
        let queued = Queued {
            instance: batch.instance,
            spec,
            attempts: batch.attempts,
            enqueued_us: batch.enqueued_us,
        };
        if batch.tasks.is_empty() {
            self.batches.remove(b);
        }
        self.len -= 1;
        queued
    }

    /// Drop every task `instance` has queued.
    pub(crate) fn purge(&mut self, instance: InstanceId) {
        self.batches.retain(|b| b.instance != instance);
        self.len = self.batches.iter().map(|b| b.tasks.len()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(q: &mut WaitQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_front())
            .map(|t| t.spec.id.0)
            .collect()
    }

    fn bundle(ids: std::ops::Range<u64>) -> Vec<TaskSpec> {
        ids.map(|i| TaskSpec::sleep(i, 0)).collect()
    }

    #[test]
    fn fifo_across_bundles_with_per_bundle_bookkeeping() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 10, 0, bundle(0..3));
        q.push(InstanceId(2), 20, 2, bundle(3..4));
        assert_eq!(q.len(), 4);
        let first = q.pop_front().unwrap();
        assert_eq!(
            (first.spec.id.0, first.enqueued_us, first.attempts),
            (0, 10, 0)
        );
        assert_eq!(first.instance, InstanceId(1));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop_front())
            .map(|t| (t.spec.id.0, t.instance, t.enqueued_us, t.attempts))
            .collect();
        assert_eq!(
            rest,
            vec![
                (1, InstanceId(1), 10, 0),
                (2, InstanceId(1), 10, 0),
                (3, InstanceId(2), 20, 2)
            ]
        );
        assert!(q.is_empty() && q.batches.is_empty());
    }

    #[test]
    fn empty_bundle_leaves_no_batch() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, Vec::new());
        assert!(q.is_empty());
        assert!(q.batches.is_empty(), "an empty batch was queued");
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn take_first_scans_the_window_across_bundles() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, bundle(0..2));
        q.push(InstanceId(1), 1, 0, bundle(2..4));
        // Task 3 is the fourth in line: outside a window of three.
        assert!(q.take_first(3, |t| t.id.0 == 3).is_none());
        assert_eq!(q.len(), 4);
        let hit = q.take_first(4, |t| t.id.0 >= 2).unwrap();
        assert_eq!((hit.spec.id.0, hit.enqueued_us), (2, 1));
        assert_eq!(ids(&mut q), vec![0, 1, 3]);
    }

    #[test]
    fn a_drained_middle_bundle_is_removed() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, bundle(0..1));
        q.push(InstanceId(1), 0, 0, bundle(1..2));
        q.push(InstanceId(1), 0, 0, bundle(2..3));
        assert_eq!(q.take_first(3, |t| t.id.0 == 1).unwrap().spec.id.0, 1);
        assert_eq!(q.batches.len(), 2);
        assert_eq!(ids(&mut q), vec![0, 2]);
    }

    #[test]
    fn purge_drops_whole_bundles_of_one_instance() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, bundle(0..3));
        q.push(InstanceId(2), 0, 0, bundle(3..5));
        q.push(InstanceId(1), 0, 1, bundle(5..6));
        q.purge(InstanceId(1));
        assert_eq!(q.len(), 2);
        assert_eq!(ids(&mut q), vec![3, 4]);
    }
}
