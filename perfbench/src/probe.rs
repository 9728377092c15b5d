//! Outside-in timing of the evaluation layer: a [`SequenceObjective`] that
//! forwards every call to the real evaluator and logs when it happened.
//! Values pass through untouched, so a run through the probe follows the
//! same trajectory as a run without it (the harness checks that).

use std::sync::Mutex;
use std::time::Instant;

use boils_core::{QorPoint, RunControl, SequenceObjective};

use crate::stats::Event;

pub struct TimedObjective<'a, O> {
    inner: &'a O,
    origin: Instant,
    events: Mutex<Vec<Event>>,
}

impl<'a, O: SequenceObjective> TimedObjective<'a, O> {
    /// Wraps `inner`; event times count from this call.
    pub fn new(inner: &'a O) -> Self {
        TimedObjective {
            inner,
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn push(&self, event: Event) {
        self.events
            .lock()
            .expect("event log poisoned by a panicking probe")
            .push(event);
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.push(Event::Eval(start, self.now()));
        out
    }

    /// The recorded calls, in the order they were logged.
    pub fn into_events(self) -> Vec<Event> {
        self.events
            .into_inner()
            .expect("event log poisoned by a panicking probe")
    }
}

impl<O: SequenceObjective> SequenceObjective for TimedObjective<'_, O> {
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        self.timed(|| self.inner.evaluate_tokens(tokens))
    }

    fn evaluate_tokens_controlled(&self, tokens: &[u8], control: &RunControl) -> Option<QorPoint> {
        self.timed(|| self.inner.evaluate_tokens_controlled(tokens, control))
    }

    fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
        self.push(Event::Lookup(self.now()));
        self.inner.lookup(tokens)
    }

    fn is_cached(&self, tokens: &[u8]) -> bool {
        self.push(Event::IsCached(self.now()));
        self.inner.is_cached(tokens)
    }

    fn num_evaluations(&self) -> usize {
        self.inner.num_evaluations()
    }

    fn cost_name(&self) -> String {
        self.inner.cost_name()
    }

    fn vector_of(&self, tokens: &[u8]) -> Option<Vec<f64>> {
        self.inner.vector_of(tokens)
    }
}
