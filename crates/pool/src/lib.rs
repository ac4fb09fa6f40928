//! falkon-pool — [`scope`] over `std::thread::scope`, kept only for the frozen
//! `benchmark/src/repro.rs`; it goes with ROADMAP item 9. A scope's workers pull
//! jobs from one channel while its body runs. Without a pool, spawns run inline.

use std::{any::Any, cell::Cell, iter, panic, sync::mpsc, sync::Mutex};

thread_local!(static WORKERS: Cell<usize> = const { Cell::new(0) });

/// A worker count for the [`scope`]s run under [`Pool::install`].
pub struct Pool(usize);

impl Pool {
    pub fn new(threads: usize) -> Pool {
        Pool(threads.max(1))
    }

    /// Run `f` with this pool installed on the calling thread, then restore the outer one.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let outer = WORKERS.replace(self.0);
        let out = panic::catch_unwind(panic::AssertUnwindSafe(f));
        WORKERS.set(outer);
        out.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

/// The job channel, or `None` (no pool, as on every worker) to run spawns inline.
pub struct Scope<'env>(Option<mpsc::Sender<Box<dyn FnOnce() + Send + 'env>>>);

impl<'env> Scope<'env> {
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        match &self.0 {
            Some(jobs) => jobs.send(Box::new(f)).expect("receiver outlives self"),
            None => f(),
        }
    }
}

/// Run `f`; return once every job it spawned has run, re-raising a job panic.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let n = WORKERS.get();
    let (jobs, rx) = mpsc::channel();
    let rx = Mutex::new(rx);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n).map(|_| s.spawn(|| work(&rx))).collect();
        let out = f(&Scope((n > 0).then_some(jobs))); // drops `jobs`: workers drain, exit
        let panicked = workers
            .into_iter()
            .find_map(|w| w.join().expect("work catches panics"));
        panicked.map_or(out, |payload| panic::resume_unwind(payload))
    })
}

/// Run each job unlocked, past panics, until the channel closes; return the first panic.
fn work<J: FnOnce()>(rx: &Mutex<mpsc::Receiver<J>>) -> Option<Box<dyn Any + Send>> {
    iter::from_fn(|| rx.lock().expect("recv does not panic").recv().ok())
        .fold(None, |first, job| {
            first.or(panic::catch_unwind(panic::AssertUnwindSafe(job)).err())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_job_runs_once_and_its_borrows_are_visible_after_the_scope() {
        let ran = Mutex::new(Vec::new());
        Pool::new(3).install(|| {
            scope(|s| {
                for i in 0..200 {
                    let ran = &ran;
                    s.spawn(move || ran.lock().unwrap().push(i));
                }
            })
        });
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..200).collect::<Vec<_>>());
    }

    /// The barrier holds each job until `n` are running, so the high-water
    /// mark reaches `n`. More than `n` at once would raise it past `n`;
    /// fewer would leave the jobs waiting at the barrier.
    #[test]
    fn at_most_n_jobs_run_at_once() {
        let n = 3;
        let (barrier, marks) = (Barrier::new(n), Mutex::new((0, 0)));
        Pool::new(n).install(|| {
            scope(|s| {
                for _ in 0..4 * n {
                    s.spawn(|| {
                        let mut m = marks.lock().unwrap();
                        m.0 += 1;
                        m.1 = m.1.max(m.0);
                        drop(m);
                        barrier.wait();
                        marks.lock().unwrap().0 -= 1;
                    });
                }
            })
        });
        assert_eq!(marks.into_inner().unwrap(), (0, n));
    }

    /// Each job holds a sender of the channel the body blocks on, so the
    /// body returns only once every job has unwound; then the scope raises.
    #[test]
    fn every_job_panicking_while_the_body_waits_re_raises() {
        let caught = Pool::new(2).install(|| {
            panic::catch_unwind(|| {
                let (tx, rx) = mpsc::channel::<()>();
                scope(|s| {
                    for _ in 0..5 {
                        let tx = tx.clone();
                        s.spawn(move || {
                            let _tx = tx;
                            panic!("job");
                        });
                    }
                    drop(tx);
                    rx.recv()
                })
            })
        });
        let payload = caught.expect_err("scope re-raises");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job"));
    }

    #[test]
    fn without_a_pool_spawn_runs_inline() {
        // An install that unwinds still restores "no pool".
        let unwound = panic::catch_unwind(|| {
            Pool::new(2).install(|| panic::resume_unwind(Box::new(())));
        });
        assert!(unwound.is_err());
        let me = std::thread::current().id();
        let ran = Mutex::new(None);
        scope(|s| {
            s.spawn(|| *ran.lock().unwrap() = Some(std::thread::current().id()));
            assert_eq!(
                *ran.lock().unwrap(),
                Some(me),
                "ran before `spawn` returned"
            );
        });
    }
}
