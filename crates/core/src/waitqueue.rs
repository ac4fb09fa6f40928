//! The dispatcher's FIFO wait queue, kept bundle by bundle and, inside a
//! bundle, run-length by shape.
//!
//! The bundles Falkon is fed are parameter sweeps: tasks that share
//! command, arguments, environment, directory, estimate and data, and
//! differ in their id. A queued bundle is therefore a column of ids beside
//! the runs of consecutive tasks of one *shape* (every [`TaskSpec`] field
//! but `id`): 300 `sleep 0` tasks are one spec and 300 ids, and a task's
//! spec is put back together as it leaves. The instance, the enqueue time
//! and the attempt count are stored once per bundle, tasks leave from its
//! front, and its buffers are freed when its last task has left. Memory
//! therefore follows the live queue — it is given back bundle by bundle as
//! the queue drains — and accepting a bundle copies one id per task.
//!
//! A run's shape is one shared [`Arc`], allocated as the run is folded in:
//! a task leaves as its id and a handle on that shape, which the
//! dispatcher keeps in its `running` entry for as long as the task is in
//! flight, so 300 tasks of one shape cost one spec whether they wait or
//! run. A bundle of all-distinct tasks is as many runs of one, each spec
//! moved into an `Arc` of its own. A replayed task re-enters as a bundle
//! of one. (`Arc`, not `Rc`: the rt dispatcher is moved onto its thread.)

use crate::ids::InstanceId;
use crate::Micros;
use falkon_proto::task::{DataSpec, TaskId, TaskSpec};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tasks that entered the queue together.
struct Batch {
    instance: InstanceId,
    enqueued_us: Micros,
    /// Dispatch attempts already made (0 for a fresh submission).
    attempts: u32,
    /// The shapes of the queued tasks in queue order, each with how many
    /// consecutive `ids` have it (never 0). A shape's own `id` means nothing.
    runs: VecDeque<(Arc<TaskSpec>, u32)>,
    /// Never empty while the batch is in the queue.
    ids: VecDeque<TaskId>,
}

/// Whether two tasks differ in nothing but their id. The cheap fields that
/// tell sweeps apart come first; the destructuring makes a new `TaskSpec`
/// field a compile error here rather than a silently merged run.
fn same_shape(a: &TaskSpec, b: &TaskSpec) -> bool {
    let TaskSpec {
        id: _,
        command,
        args,
        env,
        working_dir,
        estimated_runtime_us,
        data,
    } = a;
    *data == b.data
        && *estimated_runtime_us == b.estimated_runtime_us
        && *args == b.args
        && *command == b.command
        && *working_dir == b.working_dir
        && *env == b.env
}

/// The spec of task `id`, whose run's shape is `shape`.
pub(crate) fn spec_of(shape: &TaskSpec, id: TaskId) -> TaskSpec {
    TaskSpec {
        id,
        ..shape.clone()
    }
}

/// One task taken off the queue, with its batch's bookkeeping.
pub(crate) struct Queued {
    pub(crate) instance: InstanceId,
    pub(crate) id: TaskId,
    /// The task's run's shape, shared with the run's other tasks.
    pub(crate) shape: Arc<TaskSpec>,
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
        let mut ids = VecDeque::with_capacity(tasks.len());
        let mut runs: VecDeque<(Arc<TaskSpec>, u32)> = VecDeque::with_capacity(1);
        for task in tasks {
            ids.push_back(task.id);
            match runs.back_mut() {
                Some((shape, n)) if *n < u32::MAX && same_shape(shape, &task) => *n += 1,
                _ => runs.push_back((Arc::new(task), 1)),
            }
        }
        self.batches.push_back(Batch {
            instance,
            enqueued_us,
            attempts,
            runs,
            ids,
        });
    }

    /// Take the task at the front of the queue.
    pub(crate) fn pop_front(&mut self) -> Option<Queued> {
        (!self.batches.is_empty()).then(|| self.take(0, 0, 0))
    }

    /// Take the first of the front `window` tasks whose data `wanted`
    /// accepts. A run's tasks share their data, so `wanted` is asked once
    /// per run and a hit is the run's first task.
    pub(crate) fn take_first(
        &mut self,
        window: usize,
        mut wanted: impl FnMut(Option<DataSpec>) -> bool,
    ) -> Option<Queued> {
        let mut seen = 0;
        for (b, batch) in self.batches.iter().enumerate() {
            let mut at = 0;
            for (r, (shape, n)) in batch.runs.iter().enumerate() {
                if seen >= window {
                    return None;
                }
                if wanted(shape.data) {
                    return Some(self.take(b, r, at));
                }
                seen += *n as usize;
                at += *n as usize;
            }
        }
        None
    }

    /// Take the task at `at` in batch `b`, which belongs to that batch's
    /// run `r`. The last task of a run takes the run's handle by move.
    fn take(&mut self, b: usize, r: usize, at: usize) -> Queued {
        let batch = &mut self.batches[b];
        let id = batch.ids.remove(at).expect("index within the batch");
        let (shape, n) = &mut batch.runs[r];
        *n -= 1;
        let shape = match *n {
            0 => batch.runs.remove(r).expect("indexed above").0,
            _ => Arc::clone(shape),
        };
        let queued = Queued {
            instance: batch.instance,
            id,
            shape,
            attempts: batch.attempts,
            enqueued_us: batch.enqueued_us,
        };
        if batch.ids.is_empty() {
            self.batches.remove(b);
        }
        self.len -= 1;
        queued
    }

    /// Drop every task `instance` has queued.
    pub(crate) fn purge(&mut self, instance: InstanceId) {
        self.batches.retain(|b| b.instance != instance);
        self.len = self.batches.iter().map(|b| b.ids.len()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_proto::task::{DataAccess, DataLocation, IStr};

    fn ids(q: &mut WaitQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_front())
            .map(|t| t.id.0)
            .collect()
    }

    fn bundle(ids: std::ops::Range<u64>) -> Vec<TaskSpec> {
        ids.map(|i| TaskSpec::sleep(i, 0)).collect()
    }

    /// `sleep 0` reading `object`.
    fn reads(id: u64, object: u64) -> TaskSpec {
        TaskSpec::sleep(id, 0).with_object(object, 1, DataLocation::SharedFs, DataAccess::Read)
    }

    fn wants(object: u64) -> impl FnMut(Option<DataSpec>) -> bool {
        move |data| data.is_some_and(|d| d.object == object)
    }

    #[test]
    fn fifo_across_bundles_with_per_bundle_bookkeeping() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 10, 0, bundle(0..3));
        q.push(InstanceId(2), 20, 2, bundle(3..4));
        assert_eq!(q.len(), 4);
        assert_eq!(q.batches[0].runs.len(), 1, "one shape, one run");
        let first = q.pop_front().unwrap();
        assert_eq!((first.id.0, first.enqueued_us, first.attempts), (0, 10, 0));
        assert_eq!(first.instance, InstanceId(1));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop_front())
            .map(|t| (t.id.0, t.instance, t.enqueued_us, t.attempts))
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
    fn a_task_leaves_as_the_spec_that_entered() {
        let tasks = vec![
            TaskSpec::sleep(0, 0),
            TaskSpec::sleep(1, 0),
            TaskSpec::sleep(2, 4),
            reads(3, 7),
            reads(4, 7),
            TaskSpec::sleep(5, 0),
        ];
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, tasks.clone());
        let counts: Vec<u32> = q.batches[0].runs.iter().map(|r| r.1).collect();
        assert_eq!(counts, vec![2, 1, 2, 1]);
        let out: Vec<TaskSpec> = std::iter::from_fn(|| q.pop_front())
            .map(|t| spec_of(&t.shape, t.id))
            .collect();
        assert_eq!(out, tasks);
    }

    #[test]
    fn take_first_scans_the_window_across_bundles() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, bundle(0..2));
        q.push(InstanceId(1), 1, 0, vec![reads(2, 7), reads(3, 9)]);
        // Task 3 is the fourth in line: outside a window of three.
        assert!(q.take_first(3, wants(9)).is_none());
        assert!(q.take_first(0, |_| true).is_none());
        assert_eq!(q.len(), 4);
        let hit = q.take_first(4, |data| data.is_some()).unwrap();
        assert_eq!((hit.id.0, hit.enqueued_us), (2, 1));
        assert_eq!(ids(&mut q), vec![0, 1, 3]);
    }

    #[test]
    fn take_first_walks_a_run_from_its_first_task_to_its_last() {
        let mut q = WaitQueue::default();
        let mut tasks = bundle(0..2);
        tasks.extend((2..5).map(|i| reads(i, 7)));
        tasks.extend(bundle(5..6));
        q.push(InstanceId(1), 0, 0, tasks);
        for want in 2..5 {
            let hit = q.take_first(3, wants(7)).unwrap();
            assert_eq!(spec_of(&hit.shape, hit.id), reads(want, 7));
        }
        assert!(q.take_first(3, wants(7)).is_none());
        assert_eq!(q.batches[0].runs.len(), 2, "the drained run is gone");
        assert_eq!(ids(&mut q), vec![0, 1, 5]);
    }

    #[test]
    fn a_drained_middle_bundle_is_removed() {
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, bundle(0..1));
        q.push(InstanceId(1), 0, 0, vec![reads(1, 7)]);
        q.push(InstanceId(1), 0, 0, bundle(2..3));
        assert_eq!(q.take_first(3, wants(7)).unwrap().id.0, 1);
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

    #[test]
    fn distinct_tasks_are_moved_through_the_queue_not_cloned() {
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| {
                let mut t = TaskSpec::sleep(i, 0);
                t.env = vec![(IStr::from("SWEEP_POINT"), IStr::from(format!("value-{i}")))];
                t
            })
            .collect();
        // One reference held here, one by the task — wherever it is.
        let held: Vec<(IStr, IStr)> = tasks.iter().map(|t| t.env[0].clone()).collect();
        let counts = || -> Vec<_> {
            held.iter()
                .map(|(k, v)| (k.strong_count(), v.strong_count()))
                .collect()
        };
        let mut q = WaitQueue::default();
        q.push(InstanceId(1), 0, 0, tasks);
        assert_eq!(q.batches[0].runs.len(), 4);
        assert_eq!(counts(), vec![(Some(2), Some(2)); 4]);
        let out: Vec<TaskSpec> = std::iter::from_fn(|| q.pop_front())
            .map(|t| spec_of(&t.shape, t.id))
            .collect();
        assert_eq!(counts(), vec![(Some(2), Some(2)); 4]);
        for (i, (t, env)) in out.iter().zip(&held).enumerate() {
            assert_eq!((t.id.0, &t.env[0]), (i as u64, env));
        }
    }
}
