//! Pluggable event sinks.

use crate::event::{EventKind, Record};
use std::sync::{Arc, Mutex};

/// Receives sequence-stamped records from a [`Tracer`](crate::Tracer).
///
/// Implementations must be thread-safe: fp-serve's workers and the legs
/// of a portfolio race emit into one sink at once. `record` takes
/// `&self`; interior mutability is the implementor's business.
pub trait Sink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: &Record);

    /// Flushes buffered output; a no-op by default.
    fn flush(&self) {}
}

/// Discards everything. Useful for measuring instrumentation overhead
/// with the tracer machinery (sequence stamping, counters) still active.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _record: &Record) {}
}

/// In-memory collector for deterministic test assertions.
///
/// Clones share the same buffer, so keep one clone and hand another to
/// [`Tracer::new`](crate::Tracer::new):
///
/// ```
/// use fp_obs::{Collector, Event, Phase, Tracer};
/// let collector = Collector::new();
/// let tracer = Tracer::new(collector.clone());
/// tracer.emit(Phase::Route, Event::RouteStart { nets: 1, cells: 4, edges: 4 });
/// assert_eq!(collector.records().len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Collector {
    records: Arc<Mutex<Vec<Record>>>,
}

impl Collector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Collector::default()
    }

    /// A snapshot of every record collected so far, in emission order.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the collector panicked mid-append.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("collector lock").clone()
    }

    /// Number of records collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("collector lock").len()
    }

    /// Whether nothing was collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records of one event kind, in emission order.
    #[must_use]
    pub fn of_kind(&self, kind: EventKind) -> Vec<Record> {
        self.records
            .lock()
            .expect("collector lock")
            .iter()
            .filter(|r| r.event.kind() == kind)
            .cloned()
            .collect()
    }

    /// Number of records of one event kind.
    #[must_use]
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.records
            .lock()
            .expect("collector lock")
            .iter()
            .filter(|r| r.event.kind() == kind)
            .count()
    }

    /// Drops every collected record.
    pub fn clear(&self) {
        self.records.lock().expect("collector lock").clear();
    }
}

impl Sink for Collector {
    fn record(&self, record: &Record) {
        self.records
            .lock()
            .expect("collector lock")
            .push(record.clone());
    }
}

/// Duplicates every record to each inner sink, in order.
pub struct Fanout {
    sinks: Vec<Box<dyn Sink>>,
}

impl Fanout {
    /// A fanout over `sinks`.
    #[must_use]
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        Fanout { sinks }
    }
}

impl Sink for Fanout {
    fn record(&self, record: &Record) {
        for sink in &self.sinks {
            sink.record(record);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Phase};
    use crate::Tracer;

    #[test]
    fn collector_filters_by_kind() {
        let c = Collector::new();
        let t = Tracer::new(c.clone());
        t.emit(
            Phase::Solver,
            Event::BnbNode {
                depth: 0,
                warm: false,
                pivots: 0,
                refactors: 0,
                etas: 0,
                propagated: false,
            },
        );
        t.emit(Phase::Solver, Event::Incumbent { objective: 1.0 });
        t.emit(
            Phase::Solver,
            Event::BnbNode {
                depth: 1,
                warm: false,
                pivots: 0,
                refactors: 0,
                etas: 0,
                propagated: false,
            },
        );
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.count_of(EventKind::BnbNode), 2);
        assert_eq!(c.of_kind(EventKind::Incumbent).len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn fanout_duplicates() {
        let a = Collector::new();
        let b = Collector::new();
        let t = Tracer::fanout(vec![Box::new(a.clone()), Box::new(b.clone())]);
        t.emit(Phase::Improve, Event::GreedyFallback { step: 3 });
        t.flush();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let t = Tracer::new(NullSink);
        t.emit(
            Phase::Solver,
            Event::BnbNode {
                depth: 0,
                warm: false,
                pivots: 0,
                refactors: 0,
                etas: 0,
                propagated: false,
            },
        );
        assert_eq!(t.count(EventKind::BnbNode), 1); // counters still work
        t.flush();
    }
}
