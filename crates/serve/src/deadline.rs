//! Remaining-budget arithmetic for deadline propagation.
//!
//! Internally every request carries an *absolute* deadline (`Instant`),
//! which is monotone by construction. The dangerous step is re-emitting
//! the budget as a relative `X-LogCL-Deadline-Ms` header on an outbound
//! hop (router → worker) or re-deriving it before an internal wait: the
//! header must be the admission budget **minus time already spent**, never
//! the original value, or queued time would resurrect an expired budget on
//! the next hop. These helpers centralise the subtraction and its
//! clamp-to-zero edge so every hop shares one audited implementation.

use std::time::{Duration, Instant};

/// Budget left until `deadline` as seen at `now`, clamped to zero once the
/// deadline has passed (it never wraps or goes negative).
pub fn remaining_budget(deadline: Instant, now: Instant) -> Duration {
    deadline.saturating_duration_since(now)
}

/// The remaining budget as whole milliseconds for an outbound
/// `X-LogCL-Deadline-Ms` header. Rounds *down*: a sub-millisecond
/// remainder propagates as `0`, which the next hop rejects at admission —
/// conservative by design, since rounding up would hand the downstream
/// hop more budget than this hop actually has.
pub fn remaining_ms(deadline: Instant, now: Instant) -> u64 {
    u64::try_from(remaining_budget(deadline, now).as_millis()).unwrap_or(u64::MAX)
}

/// The request header that carries a relative deadline between hops.
pub const DEADLINE_HEADER: &str = "X-LogCL-Deadline-Ms";

/// A deadline header whose value is not a whole number of milliseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDeadline(String);

impl std::fmt::Display for InvalidDeadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {DEADLINE_HEADER} value {:?} (want milliseconds)",
            self.0
        )
    }
}

impl std::error::Error for InvalidDeadline {}

/// The budget a request is admitted with: the [`DEADLINE_HEADER`] value the
/// client sent, clamped to `ceiling`, or `default` when it sent none. Every
/// hop (worker and router) admits through this one parser, so a value one
/// hop accepts can never be a 400 at the next.
pub fn from_header(
    raw: Option<&str>,
    default: Duration,
    ceiling: Duration,
) -> Result<Duration, InvalidDeadline> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    let ms: u64 = raw
        .trim()
        .parse()
        .map_err(|_| InvalidDeadline(raw.to_string()))?;
    Ok(Duration::from_millis(ms).min(ceiling))
}

/// Whether the budget is already exhausted at `now` — the shed-before-
/// forward test: an expired request is answered `504` locally instead of
/// being put on the wire.
pub fn expired(deadline: Instant, now: Instant) -> bool {
    now >= deadline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_budget_decrements_by_time_spent() {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(250);
        assert_eq!(
            remaining_budget(deadline, t0 + Duration::from_millis(100)),
            Duration::from_millis(150)
        );
        assert_eq!(remaining_ms(deadline, t0 + Duration::from_millis(100)), 150);
        assert!(!expired(deadline, t0 + Duration::from_millis(249)));
    }

    #[test]
    fn clamps_to_zero_once_expired() {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(50);
        // Exactly at the deadline and arbitrarily far past it: zero, never
        // a wrapped or negative budget that would resurrect the request.
        for spent in [50u64, 51, 1_000, 3_600_000] {
            let now = t0 + Duration::from_millis(spent);
            assert_eq!(remaining_budget(deadline, now), Duration::ZERO);
            assert_eq!(remaining_ms(deadline, now), 0);
            assert!(expired(deadline, now));
        }
    }

    #[test]
    fn header_budget_is_clamped_defaulted_or_refused() {
        let (default, ceiling) = (Duration::from_secs(30), Duration::from_secs(120));
        assert_eq!(from_header(None, default, ceiling), Ok(default));
        assert_eq!(
            from_header(Some(" 250 "), default, ceiling),
            Ok(Duration::from_millis(250))
        );
        assert_eq!(from_header(Some("0"), default, ceiling), Ok(Duration::ZERO));
        assert_eq!(
            from_header(Some("999999999"), default, ceiling),
            Ok(ceiling)
        );
        for bad in ["soon", "-1", "1.5", ""] {
            let err = from_header(Some(bad), default, ceiling).unwrap_err();
            assert!(err.to_string().contains("X-LogCL-Deadline-Ms"), "{err}");
            assert!(err.to_string().contains("want milliseconds"), "{err}");
        }
    }

    #[test]
    fn sub_millisecond_remainders_round_down_to_zero() {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_micros(900);
        // 900µs of budget left: not yet expired locally, but the outbound
        // header floors to 0 ms — the downstream hop may not inherit more
        // budget than actually remains.
        assert!(!expired(deadline, t0));
        assert_eq!(remaining_ms(deadline, t0), 0);
    }
}
