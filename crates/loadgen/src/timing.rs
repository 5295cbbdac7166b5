//! The crate's single wall-clock module.
//!
//! The crate's `clippy.toml` bans `Instant::now()` across loadgen source so
//! that histogram math stays deterministic and unit-testable; this module
//! is the one carved-out exception. Callers work with plain `u64`
//! microsecond *offsets* from a [`Clock`]'s start.

#![expect(
    clippy::disallowed_methods,
    reason = "the crate's single clock module: every wall-clock read in loadgen is here"
)]

use std::time::{Duration, Instant};

/// A run-anchored monotonic clock measuring microsecond offsets.
///
/// `Copy`, so the dispatcher and every worker thread can carry the same
/// anchor; offsets from different copies are mutually comparable.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// Anchors a new clock at the current instant.
    pub fn start() -> Self {
        Clock {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`Clock::start`].
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Sleeps until `at` microseconds past the anchor (no-op when already
    /// past — an open-loop dispatcher running behind must not stall
    /// further).
    pub fn sleep_until_micros(&self, at: u64) {
        let now = self.elapsed_micros();
        if at > now {
            std::thread::sleep(Duration::from_micros(at - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let c = Clock::start();
        let a = c.elapsed_micros();
        let b = c.elapsed_micros();
        assert!(b >= a);
    }

    #[test]
    fn copies_share_the_anchor() {
        let c = Clock::start();
        let d = c;
        std::thread::sleep(Duration::from_millis(2));
        // Both copies see the same elapsed time (within scheduling noise).
        let diff = c.elapsed_micros().abs_diff(d.elapsed_micros());
        assert!(diff < 2_000, "copies diverged by {diff}us");
    }

    #[test]
    fn sleep_until_past_offset_returns_immediately() {
        let c = Clock::start();
        c.sleep_until_micros(0); // already past; must not block
        let before = c.elapsed_micros();
        c.sleep_until_micros(before + 2_000);
        assert!(c.elapsed_micros() >= before + 2_000);
    }
}
