//! Cooperative cancellation and deadlines for optimisation runs.
//!
//! A [`RunControl`] is a cheap, cloneable handle (one `Arc` around an
//! atomic flag and an optional monotonic deadline) threaded through every
//! optimiser's [`RunLedger`](crate::RunLedger), and — between
//! synthesis passes — [`QorEvaluator`](crate::QorEvaluator). Checks are
//! polling, never preemptive: an interrupted run finishes nothing half-way,
//! it simply stops starting new work and returns best-so-far with a
//! [`Termination`](crate::Termination) reason.
//!
//! Cancellation is deterministic in the sense that matters for
//! reproducibility: evaluation values are pure functions of their tokens,
//! so a run stopped after `k` evaluations reports an exact prefix of the
//! uncancelled trajectory — scheduling can change *where* the cut lands,
//! never *what* the records before it contain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a controlled run stopped before exhausting its budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The monotonic deadline passed.
    DeadlineExceeded,
}

#[derive(Debug)]
struct ControlInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shareable cancellation token with an optional deadline.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same cancel
/// flag. The default control never fires, so threading it through a run
/// costs one atomic load per check and changes nothing observable.
#[derive(Clone, Debug)]
pub struct RunControl {
    inner: Arc<ControlInner>,
}

impl RunControl {
    /// A control that never fires until [`RunControl::cancel`] is called.
    pub fn new() -> RunControl {
        RunControl {
            inner: Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A control that fires `DeadlineExceeded` once `budget` of wall-clock
    /// time has elapsed (measured from this call, monotonic). A deadline
    /// past the end of the clock's range never fires.
    pub fn with_deadline(budget: Duration) -> RunControl {
        RunControl {
            inner: Arc::new(ControlInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested (ignores the deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Why the run should stop now, if it should. Explicit cancellation
    /// wins over an expired deadline, so repeated polls after a `cancel`
    /// report a stable reason.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }
}

impl Default for RunControl {
    fn default() -> RunControl {
        RunControl::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_control_never_fires() {
        let control = RunControl::new();
        assert!(!control.is_cancelled());
        assert_eq!(control.stop_reason(), None);
    }

    #[test]
    fn cancel_is_visible_to_every_clone() {
        let control = RunControl::new();
        let clone = control.clone();
        clone.cancel();
        assert!(control.is_cancelled());
        assert_eq!(control.stop_reason(), Some(StopReason::Cancelled));
        // Idempotent.
        control.cancel();
        assert_eq!(clone.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_fires_and_cancel_outranks_it() {
        let control = RunControl::with_deadline(Duration::ZERO);
        assert_eq!(control.stop_reason(), Some(StopReason::DeadlineExceeded));
        control.cancel();
        assert_eq!(control.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let control = RunControl::with_deadline(Duration::from_secs(3600));
        assert_eq!(control.stop_reason(), None);
        // Past the end of the clock's range: no overflow, never fires.
        let control = RunControl::with_deadline(Duration::MAX);
        assert_eq!(control.stop_reason(), None);
    }
}
