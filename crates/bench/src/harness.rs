//! The `repro all` execution harness: `N` workers, with byte-identical
//! output for every `N`.
//!
//! `repro all --jobs N` runs the registry's shared-run groups on `N` scoped
//! threads (one by default), each taking the next group until none is
//! left; nothing inside a group fans out. Output determinism is
//! structural, not incidental:
//!
//! - each `shared_run_key` group executes exactly once, on one worker —
//!   consumers of a shared run (fig9/fig10; table3/table4/fig12/fig13)
//!   render the same `Report`, so the emit loop blocks until the group's
//!   run has arrived;
//! - rendering and emission happen on the calling thread, walking
//!   [`registry::REGISTRY`] in declaration order.
//!
//! The `measured` experiment reports wall-clock rates and is excluded from
//! byte-identity comparisons (it is last in the registry, so a single
//! carve-out suffices; see `tests/determinism.rs` and the CI bench-smoke
//! job).

use falkon_exp::experiments::{registry, Scale};
use std::collections::HashMap;
use std::sync::{mpsc, Mutex};
use std::{panic, thread};

/// Run every registry entry on up to `jobs` workers (at least one) and
/// stream rendered blocks to `sink` in registry order.
pub fn run_all_with(scale: Scale, jobs: usize, sink: &mut dyn FnMut(&'static str, &str)) {
    // One job per shared-run group, in first-occurrence order so the
    // earliest-emitting groups start first.
    let mut groups: Vec<(&'static str, &'static dyn registry::Experiment)> = Vec::new();
    for exp in registry::REGISTRY {
        let key = exp.shared_run_key();
        if !groups.iter().any(|&(k, _)| k == key) {
            groups.push((key, *exp));
        }
    }

    let (tx, rx) = mpsc::channel::<(&'static str, registry::Report)>();
    let next = Mutex::new(groups.into_iter());
    thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                let (tx, next) = (tx.clone(), &next);
                s.spawn(move || loop {
                    let Some((key, exp)) = next.lock().expect("runs unlocked").next() else {
                        break;
                    };
                    let _ = tx.send((key, exp.run(scale)));
                })
            })
            .collect();
        drop(tx);

        // Emit on this thread, in registry order, as group runs land.
        let mut ready: HashMap<&'static str, registry::Report> = HashMap::new();
        let mut printed: HashMap<&'static str, Vec<String>> = HashMap::new();
        'emit: for exp in registry::REGISTRY {
            let key = exp.shared_run_key();
            while !ready.contains_key(key) {
                // A group run panicked: stop emitting; its join re-raises it.
                let Ok((k, report)) = rx.recv() else {
                    break 'emit;
                };
                ready.insert(k, report);
            }
            emit_block(*exp, &ready[key], &mut printed, sink);
        }
        for w in workers {
            if let Err(payload) = w.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// Render one entry and emit it unless an entry of the same group already
/// printed the identical text (fig9/fig10 are the same plot).
fn emit_block(
    exp: &dyn registry::Experiment,
    report: &registry::Report,
    printed: &mut HashMap<&'static str, Vec<String>>,
    sink: &mut dyn FnMut(&'static str, &str),
) {
    let text = exp.render(report);
    if text.is_empty() {
        return;
    }
    let seen = printed.entry(exp.shared_run_key()).or_default();
    if seen.contains(&text) {
        return;
    }
    sink(exp.id(), &text);
    seen.push(text);
}
