//! Virtual time for the RTR timer layer.
//!
//! RFC 8210 §6 hangs real behaviour off wall-clock intervals — Refresh,
//! Retry, Expire, idle deadlines — which makes the recovery paths the
//! hardest ones to test: a test that sleeps through a 600-second Retry
//! interval is not a test anyone runs. [`Clock`] is the seam: every
//! timer consumer ([`crate::client::RouterClient`],
//! [`crate::server::FanoutServer`], the TCP event loop) reads time
//! through a `Clock`, and tests hand them a *manual* clock they advance
//! explicitly. Virtual time plus the seeded fault streams of the
//! `testkit` lab make every recovery trace deterministic: the same
//! schedule of `advance` calls replays the same timer firings, byte for
//! byte.
//!
//! A `Clock` measures monotonic elapsed time as a [`Duration`] since
//! its creation — there is no calendar here, only intervals, which is
//! all the RTR timers need. Clones of a manual clock share one
//! timeline, so a router and the server it talks to observe the same
//! `advance`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic clock: real (`Instant`-backed) or manual (test-driven).
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Wall time, measured from the clock's creation.
    System(Instant),
    /// Virtual time, advanced explicitly; shared across clones.
    Manual(Arc<Mutex<Duration>>),
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::system()
    }
}

impl Clock {
    /// A real clock: `now()` reports wall time elapsed since creation.
    pub fn system() -> Clock {
        Clock {
            inner: Inner::System(Instant::now()),
        }
    }

    /// A manual clock starting at zero. Time moves only through
    /// [`Clock::advance`]; clones share the timeline.
    ///
    /// A test hook: `testkit`'s sessions and chaos runs and the crate's
    /// unit tests run on it.
    pub fn manual() -> Clock {
        Clock {
            inner: Inner::Manual(Arc::new(Mutex::new(Duration::ZERO))),
        }
    }

    /// Elapsed time since the clock's creation.
    pub fn now(&self) -> Duration {
        match &self.inner {
            Inner::System(base) => base.elapsed(),
            Inner::Manual(t) => *t.lock().expect("clock poisoned"),
        }
    }

    /// Moves a manual clock forward by `by`.
    ///
    /// # Panics
    ///
    /// Panics on a system clock — advancing wall time is a test-only
    /// operation, and silently ignoring it would desynchronize a test's
    /// model of time from the timers it drives.
    pub fn advance(&self, by: Duration) {
        match &self.inner {
            Inner::System(_) => panic!("advance on a system clock"),
            Inner::Manual(t) => *t.lock().expect("clock poisoned") += by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let clock = Clock::manual();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
        clock.advance(Duration::from_millis(1));
        assert_eq!(clock.now(), Duration::from_millis(5001));
    }

    #[test]
    fn clones_share_a_manual_timeline() {
        let a = Clock::manual();
        let b = a.clone();
        a.advance(Duration::from_secs(3));
        assert_eq!(b.now(), Duration::from_secs(3));
        b.advance(Duration::from_secs(4));
        assert_eq!(a.now(), Duration::from_secs(7));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = Clock::system();
        assert!(matches!(clock.inner, Inner::System(_)));
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    #[should_panic(expected = "advance on a system clock")]
    fn advancing_a_system_clock_panics() {
        Clock::system().advance(Duration::from_secs(1));
    }
}
