//! falkon-pool — a scoped thread pool for the *drivers*: one queue, one lock.
//!
//! The sans-io core (`falkon-core`, `falkon-sim`, …) stays single-threaded;
//! this crate is mounted only by drivers (`repro`, the benchmark) to fan
//! independent work — whole experiments, or the embarrassingly parallel
//! inner sweeps inside one — across cores. What it schedules is coarse: a
//! `repro all --full` is about 125 jobs of milliseconds to seconds each.
//! At that grain a lock taken twice per job cannot be seen, so the
//! scheduler is the simplest one that is obviously right: a FIFO
//! `VecDeque<Job>` and a `shutdown` flag behind one `Mutex`, and one
//! `Condvar`. No external dependencies.
//!
//! - **One loop, one wake-up rule.** Pool workers and threads joining a
//!   [`scope`] run the same loop (`Shared::run_until`): pop a job and run
//!   it, else return if finished, else `wait`. Everything a sleeper waits
//!   for — a job queued, a scope's last job done, shutdown — changes under
//!   the pool lock and is followed by `notify_all`, so a wake-up cannot be
//!   lost and nothing polls or times out.
//! - **Scoped, blocking joins; join helps.** [`scope`] returns only after
//!   every job it spawned has completed, so jobs may borrow the enclosing
//!   stack frame (the lifetime erasure in [`Scope::spawn`] is sound for
//!   exactly this reason). A thread waiting on a scope runs queued jobs
//!   instead of idling — its own scope's or anyone's — so nested scopes
//!   cannot deadlock however few workers there are. Workers pop before they
//!   look at `shutdown`, so dropping the pool drains the queue first.
//! - **Ambient, optional.** [`Pool::install`] plants the pool in TLS for the
//!   duration of a closure; [`parallel_map`] and [`scope`] pick it up if
//!   present and degrade to serial execution otherwise. Experiment code can
//!   therefore call `parallel_map` unconditionally — under `repro all
//!   --jobs 1` (or in unit tests) it is a plain `map`, byte-identical by
//!   construction.
//! - **No clock, no sleep.** The crate never reads wall-clock time (that
//!   remains `falkon-rt`'s monopoly, enforced by clippy.toml's
//!   `disallowed-methods`).
//!
//! Ordering protocol: there is none to get wrong. The one atomic, a
//! scope's `pending` count, is read and written only with the pool lock
//! held; it is an atomic so that jobs on several threads can share it, and
//! the lock, not the `SeqCst` it is given, is what orders its accesses.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Notified (all waiters) after every change a sleeper could be waiting
    /// for; always paired with `state`.
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // The lock is never held while a job runs and jobs catch their own
        // panics, so poison means this crate itself panicked mid-update.
        self.state.lock().expect("pool lock poisoned")
    }

    /// Run queued jobs until the queue is empty and `finished` holds,
    /// sleeping on the condvar in between. `finished` is evaluated under
    /// the pool lock.
    fn run_until(&self, finished: impl Fn(&State) -> bool) {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.queue.pop_front() {
                drop(st);
                job();
                st = self.lock();
            } else if finished(&st) {
                return;
            } else {
                st = self.changed.wait(st).expect("pool lock poisoned");
            }
        }
    }
}

thread_local! {
    /// The ambient pool: set for the lifetime of a worker thread, or for
    /// the duration of [`Pool::install`] on any other thread.
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// A fixed-size pool of worker threads. Dropping it joins every worker
/// after draining any queued jobs.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            changed: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("falkon-pool-{i}"))
                    .spawn(move || {
                        CURRENT.set(Some(shared.clone()));
                        shared.run_until(|st| st.shutdown);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Run `f` with this pool as the thread's ambient pool: [`scope`] and
    /// [`parallel_map`] inside `f` will use it. The previous ambient pool
    /// (if any) is restored afterwards.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(self.0.take());
            }
        }
        let _restore = Restore(CURRENT.replace(Some(self.shared.clone())));
        f()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.changed.notify_all();
        for h in self.handles.drain(..) {
            h.join().expect("pool worker panicked outside a job");
        }
    }
}

struct ScopeState {
    /// Jobs spawned and not yet finished. Only touched under the pool lock
    /// (see the module's ordering protocol).
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle passed to the [`scope`] closure; spawn jobs that may borrow
/// anything outliving the scope call.
pub struct Scope<'env> {
    shared: Option<Arc<Shared>>,
    state: Arc<ScopeState>,
    /// Invariant over 'env, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Run `f` on the ambient pool (or inline when there is none). Panics
    /// inside `f` are captured and re-raised when the scope joins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let Some(shared) = &self.shared else {
            f();
            return;
        };
        let (pool, state) = (shared.clone(), self.state.clone());
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("panic slot poisoned")
                    .get_or_insert(payload);
            }
            // Under the pool lock, so the joiner cannot check `pending`
            // between this store and the notify and then sleep through it.
            let _st = pool.lock();
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                pool.changed.notify_all();
            }
        });
        // SAFETY: only the lifetime is erased. `scope` blocks until
        // `pending` reaches zero before 'env can end (even on panic), and
        // the job consumes `f` with everything it borrowed before it
        // decrements `pending`, so every borrow outlives its last use.
        #[allow(unsafe_code)]
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        let mut st = shared.lock();
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        st.queue.push_back(job);
        drop(st);
        shared.changed.notify_all();
    }
}

/// Create a scope on the ambient pool. Returns after every spawned job has
/// finished — running queued jobs itself while it waits — and re-raises
/// the first captured job panic. With no ambient pool, spawns run inline
/// and this is plain function application.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let sc = Scope {
        shared: CURRENT.with_borrow(Clone::clone),
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }),
        _env: PhantomData,
    };
    // Join even if `f` panics: spawned jobs may borrow `f`'s frame.
    let out = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    if let Some(shared) = &sc.shared {
        shared.run_until(|_| sc.state.pending.load(Ordering::SeqCst) == 0);
    }
    let job_panic = sc.state.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = job_panic {
        resume_unwind(payload);
    }
    match out {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

/// Whether an ambient pool is installed on this thread (so `parallel_map`
/// would actually fan out).
fn active() -> bool {
    CURRENT.with_borrow(Option::is_some)
}

/// Map `f` over `items`, fanning out across the ambient pool when one is
/// installed (serial otherwise). Results come back in input order, so the
/// output is identical — byte for byte, for deterministic `f` — at any
/// worker count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if !active() || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let (slots_ref, f_ref) = (&slots, &f);
    scope(|s| {
        for (i, item) in items.into_iter().enumerate() {
            s.spawn(move || {
                let r = f_ref(item);
                *slots_ref[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("scope joined all jobs"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_map_without_pool_is_plain_map() {
        assert!(!active());
        let out = parallel_map(vec![1, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = Pool::new(4);
        let out = pool.install(|| parallel_map((0..200).collect(), |x: u64| x * x));
        assert_eq!(out, (0..200).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn scope_joins_all_jobs() {
        let pool = Pool::new(3);
        let hits = AtomicU64::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..500 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::new(2);
        let sum = pool.install(|| {
            parallel_map((0..8).collect(), |i: u64| {
                // Each outer job fans out again on the same two workers.
                parallel_map((0..8).collect(), |j: u64| i * 10 + j)
                    .into_iter()
                    .sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        });
        let expect: u64 = (0..8u64)
            .map(|i| (0..8u64).map(|j| i * 10 + j).sum::<u64>())
            .sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn job_panic_propagates_to_scope_caller() {
        let pool = Pool::new(2);
        let caught = pool.install(|| {
            catch_unwind(AssertUnwindSafe(|| {
                scope(|s| {
                    s.spawn(|| panic!("boom in job"));
                    s.spawn(|| { /* sibling still joins */ });
                });
            }))
        });
        assert!(caught.is_err());
        // The pool is still usable afterwards.
        let out = pool.install(|| parallel_map(vec![1, 2], |x| x + 1));
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn install_restores_previous_ambient() {
        let a = Pool::new(1);
        let b = Pool::new(1);
        a.install(|| {
            assert!(active());
            b.install(|| assert!(active()));
            assert!(active());
        });
        assert!(!active());
    }

    /// A scope blocks its owner — who borrows the pool — until its jobs
    /// have run, so no caller can drop a pool with work queued; the state
    /// is built by hand here to pin that workers pop before they look at
    /// `shutdown`.
    #[test]
    fn drop_runs_jobs_still_queued() {
        let pool = Pool::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        {
            let mut st = pool.shared.lock();
            st.shutdown = true;
            for _ in 0..100 {
                let ran = ran.clone();
                st.queue.push_back(Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 100);
    }
}
