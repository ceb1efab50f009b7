//! Per-request time budgets.
//!
//! A [`Deadline`] is an absolute point in time carried alongside a request
//! from the first byte read off the socket to the final response write.
//! Every blocking step on the request path — socket reads, socket writes,
//! cold model reloads, the start of predict — checks the *same* deadline,
//! so a request's total latency is bounded end to end instead of each
//! step getting its own independent timeout (which would let a slow
//! client spend `n_steps × timeout` of a worker's time).
//!
//! The server derives the deadline from `ServeConfig::request_timeout`
//! when the first byte of a request arrives; a client may only ever
//! *shorten* it via the `X-Deadline-Ms` header ([`Deadline::tighten`]).
//! An unbounded deadline (`request_timeout = 0`) disables enforcement.

use crate::errors::ServeError;
use std::time::{Duration, Instant};

/// An absolute per-request time budget. Copyable so it travels with the
/// request through the router and the registry.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// `None` = unbounded (deadline enforcement disabled).
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` from now. A zero budget means **unbounded**
    /// (the configuration spelling for "deadlines off"), not
    /// already-expired — use [`Deadline::tighten`] with `0` to express an
    /// immediately-expired budget.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        if budget.is_zero() {
            Self::unbounded()
        } else {
            Self {
                at: Some(Instant::now() + budget),
            }
        }
    }

    /// No deadline: every check passes, `remaining` is `None`.
    #[must_use]
    pub fn unbounded() -> Self {
        Self { at: None }
    }

    /// True when the budget is exhausted (never true when unbounded).
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Gates a step that starts work the request may no longer use:
    /// `deadline_exceeded` (504) naming the step once the budget is spent.
    ///
    /// # Errors
    /// The 504 when the deadline has expired.
    pub(crate) fn check(&self, step: &str) -> Result<(), ServeError> {
        if self.expired() {
            return Err(ServeError::deadline_exceeded(format!(
                "deadline expired before {step}"
            )));
        }
        Ok(())
    }

    /// Time left, `None` when unbounded, zero when expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Shortens the deadline to at most `ms` milliseconds from now (the
    /// `X-Deadline-Ms` contract: a client can only tighten the server's
    /// budget, never extend it). `ms = 0` expires the deadline immediately.
    pub fn tighten(&mut self, ms: u64) {
        let candidate = Instant::now() + Duration::from_millis(ms);
        self.at = Some(match self.at {
            Some(at) => at.min(candidate),
            None => candidate,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_means_unbounded() {
        let d = Deadline::after(Duration::ZERO);
        assert!(!d.expired());
        assert!(d.remaining().is_none());
    }

    #[test]
    fn expires_after_budget() {
        let d = Deadline::after(Duration::from_millis(10));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() <= Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(15));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn tighten_only_shortens() {
        let mut d = Deadline::after(Duration::from_secs(60));
        d.tighten(10);
        assert!(d.remaining().unwrap() <= Duration::from_millis(10));
        // A larger header value cannot extend the budget back out.
        d.tighten(60_000);
        assert!(d.remaining().unwrap() <= Duration::from_millis(10));
        // Tightening an unbounded deadline bounds it.
        let mut u = Deadline::unbounded();
        u.tighten(0);
        assert!(u.expired());
    }
}
