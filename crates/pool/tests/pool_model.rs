//! Model suite for the pool: random job trees against plain recursion.
//!
//! A tree (depth ≤ 3, fan-out ≤ 8) is evaluated with one `parallel_map`
//! per inner node, so scopes nest as deep as the tree and every joiner has
//! to help. The model is the leaves' pre-order numbering — what the same
//! walk returns with no pool installed. Each case runs on 1–4 workers,
//! either with the workers free or with every worker held inside a gate
//! job so that the installing thread is the only one left to run anything.
//! Pinned: every leaf runs exactly once, results come back in input order
//! at every level, a panicking leaf surfaces at its owning scope's join
//! after all of its siblings ran and leaves the pool usable, and the pool
//! drops cleanly once the last scope has joined.

use falkon_pool::{parallel_map, scope, Pool};
use proptest::prelude::*;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex};

#[derive(Clone, Debug)]
enum Tree {
    /// Carries its pre-order index among the leaves.
    Leaf(usize),
    Node(Vec<Tree>),
}

/// A root node over up to three levels; leaves are numbered afterwards.
fn arb_tree() -> impl Strategy<Value = (Tree, usize)> {
    let l1 = prop_oneof![
        Just(Tree::Leaf(0)),
        prop::collection::vec(Just(Tree::Leaf(0)), 0..9).prop_map(Tree::Node),
    ]
    .boxed();
    let l2 = prop_oneof![
        Just(Tree::Leaf(0)),
        prop::collection::vec(l1, 0..9).prop_map(Tree::Node),
    ];
    prop::collection::vec(l2, 1..9).prop_map(|kids| {
        let mut root = Tree::Node(kids);
        let mut leaves = 0;
        number(&mut root, &mut leaves);
        (root, leaves)
    })
}

fn number(t: &mut Tree, next: &mut usize) {
    match t {
        Tree::Leaf(id) => {
            *id = *next;
            *next += 1;
        }
        Tree::Node(kids) => kids.iter_mut().for_each(|k| number(k, next)),
    }
}

/// The payload the chosen leaf unwinds with (through `resume_unwind`, so
/// the panic hook stays quiet over hundreds of cases).
#[derive(Debug, PartialEq)]
struct LeafPanic(usize);

struct Run {
    hits: Vec<AtomicU32>,
    panicker: Option<usize>,
    /// Nodes that saw the panic before all their other leaves had run.
    early: AtomicU32,
}

impl Run {
    fn new(leaves: usize, panicker: Option<usize>) -> Run {
        Run {
            hits: (0..leaves).map(|_| AtomicU32::new(0)).collect(),
            panicker,
            early: AtomicU32::new(0),
        }
    }

    /// Leaf ids under `t`, in input order — which is pre-order exactly when
    /// every `parallel_map` on the way kept its order.
    fn eval(&self, t: &Tree) -> Vec<usize> {
        match t {
            Tree::Leaf(id) => {
                self.hits[*id].fetch_add(1, Ordering::SeqCst);
                if self.panicker == Some(*id) {
                    resume_unwind(Box::new(LeafPanic(*id)));
                }
                vec![*id]
            }
            Tree::Node(kids) if kids.len() > 1 => {
                let joined = catch_unwind(AssertUnwindSafe(|| {
                    parallel_map(kids.iter().collect(), |k: &Tree| self.eval(k))
                }));
                match joined {
                    Ok(parts) => parts.concat(),
                    Err(payload) => {
                        // This node's scope has joined: whatever else is
                        // below it has run, panicking sibling or not.
                        if !self.ran_once(t) {
                            self.early.fetch_add(1, Ordering::SeqCst);
                        }
                        resume_unwind(payload)
                    }
                }
            }
            // `parallel_map` runs 0 or 1 items inline; nothing to join.
            Tree::Node(kids) => kids.iter().flat_map(|k| self.eval(k)).collect(),
        }
    }

    fn ran_once(&self, t: &Tree) -> bool {
        match t {
            Tree::Leaf(id) => self.hits[*id].load(Ordering::SeqCst) == 1,
            Tree::Node(kids) => kids.iter().all(|k| self.ran_once(k)),
        }
    }
}

/// Holds every worker of a pool inside a job until opened.
#[derive(Default)]
struct Gate {
    /// (gate jobs that have started, open)
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn wait_for_held(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// Run `body` with `pool` installed. With `alone`, a second thread first
/// parks one gate job on each worker (it waits in its scope body, not in
/// the join, so it runs none itself), and `body` starts only once all of
/// them are held: the calling thread is then the pool's only runner.
fn with_pool<R>(pool: &Pool, workers: usize, alone: bool, body: impl FnOnce() -> R) -> R {
    if !alone {
        return pool.install(body);
    }
    let gate = Gate::default();
    std::thread::scope(|ts| {
        ts.spawn(|| {
            pool.install(|| {
                scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| gate.hold());
                    }
                    gate.hold();
                })
            })
        });
        gate.wait_for_held(workers + 1);
        // Opened on the way out even if `body` unwinds, so a failure is a
        // failed test and not a hung one.
        struct Open<'a>(&'a Gate);
        impl Drop for Open<'_> {
            fn drop(&mut self) {
                self.0.open();
            }
        }
        let _open = Open(&gate);
        pool.install(body)
    })
}

proptest! {
    #[test]
    fn tree_on_pool_matches_serial_walk(
        (tree, leaves) in arb_tree(),
        workers in 1usize..5,
        alone in any::<bool>(),
    ) {
        let pool = Pool::new(workers);
        let run = Run::new(leaves, None);
        let order = with_pool(&pool, workers, alone, || run.eval(&tree));
        drop(pool);
        prop_assert_eq!(order, (0..leaves).collect::<Vec<_>>());
        prop_assert!(run.ran_once(&tree));
    }

    #[test]
    fn leaf_panic_surfaces_at_its_scope_after_siblings_ran(
        (tree, leaves) in arb_tree(),
        pick in any::<u64>(),
        workers in 1usize..5,
        alone in any::<bool>(),
    ) {
        let pool = Pool::new(workers);
        let panicker = (pick % leaves.max(1) as u64) as usize;
        let run = Run::new(leaves, (leaves > 0).then_some(panicker));
        let outcome = with_pool(&pool, workers, alone, || {
            catch_unwind(AssertUnwindSafe(|| run.eval(&tree)))
        });
        if leaves == 0 {
            prop_assert_eq!(outcome.ok(), Some(vec![]));
        } else {
            let payload = outcome.expect_err("the leaf's panic reaches the root");
            prop_assert_eq!(payload.downcast_ref::<LeafPanic>(), Some(&LeafPanic(panicker)));
            // Every scope between the leaf and the root joined all of its
            // jobs before re-raising, so no leaf anywhere was skipped.
            prop_assert_eq!(run.early.load(Ordering::SeqCst), 0);
            prop_assert!(run.ran_once(&tree));
        }
        // The same pool, afterwards, with nobody panicking.
        let again = Run::new(leaves, None);
        let order = with_pool(&pool, workers, alone, || again.eval(&tree));
        drop(pool);
        prop_assert_eq!(order, (0..leaves).collect::<Vec<_>>());
        prop_assert!(again.ran_once(&tree));
    }
}
