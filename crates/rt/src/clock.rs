//! Monotonic microsecond clock.

use std::time::Instant;

/// A shared origin for microsecond timestamps (`falkon_core::Micros`).
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Start a clock at the current instant.
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's one clock origin; every other time is µs on a `Clock`"
    )]
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Microseconds since the clock started.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let c = Clock::start();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn copies_share_origin() {
        let c = Clock::start();
        let d = c;
        // Let ~2 ms of wall time pass without a cadenced sleep: park on a
        // Condvar nobody signals, so the wait expires by timeout alone.
        let gate = std::sync::Mutex::new(());
        let cv = std::sync::Condvar::new();
        let guard = gate.lock().unwrap();
        let (_guard, timed_out) = cv
            .wait_timeout(guard, std::time::Duration::from_millis(2))
            .unwrap();
        assert!(timed_out.timed_out());
        assert!(d.now_us() >= 2_000);
        assert!(c.now_us() >= d.now_us().saturating_sub(1_000));
    }
}
