//! Structured observability for the floorplanning pipeline.
//!
//! The DAC'90 successive-augmentation driver repeatedly solves MILP
//! subproblems whose difficulty hinges on quantities that are invisible
//! from the outside: binaries per subproblem, branch-and-bound nodes,
//! greedy fallbacks, channel-width adjustments. This crate is the
//! pipeline's shared event/metric layer:
//!
//! * **Typed events** ([`Event`]) tagged with a pipeline [`Phase`] and a
//!   monotone sequence number — [`Event::BnbNode`], [`Event::Incumbent`],
//!   [`Event::AugmentStep`], [`Event::GreedyFallback`],
//!   [`Event::ChannelAdjust`], span timers, and friends.
//! * **Pluggable sinks** ([`Sink`]): an in-memory [`Collector`] whose
//!   records make solver/driver internals assertable in tests, a
//!   [`JsonlSink`] writing one JSON object per line, and a [`Fanout`]
//!   tee. [`render_summary`] turns collected records into a
//!   human-readable run summary.
//! * **A cheap handle** ([`Tracer`]): `Clone + Send + Sync`, one
//!   `Option` check when disabled, and one relaxed atomic sequence
//!   number per event when enabled — safe to share between fp-serve's
//!   workers and a portfolio race's legs without measurable overhead.
//!
//! # Example
//!
//! ```
//! use fp_obs::{Collector, Event, Phase, Tracer};
//!
//! let collector = Collector::new();
//! let tracer = Tracer::new(collector.clone());
//! tracer.emit(Phase::Solver, Event::BnbNode { depth: 0, warm: false, pivots: 0, refactors: 1, etas: 0, propagated: false });
//! tracer.emit(Phase::Solver, Event::Incumbent { objective: 42.0 });
//! assert_eq!(collector.count_of(|e| matches!(e, Event::BnbNode { .. })), 1);
//! let records = collector.records();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].seq, 0); // sequence numbers are monotone
//!
//! // Disabled tracing emits nothing and costs one Option check.
//! let off = Tracer::disabled();
//! off.emit(Phase::Solver, Event::BnbNode { depth: 9, warm: false, pivots: 0, refactors: 0, etas: 0, propagated: false });
//! assert_eq!(off.total_events(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod jsonl;
mod sink;
mod summary;

pub use event::{Event, Phase, Record, StepTermination};
pub use jsonl::{
    format_line, parse_line, validate_line, JsonValue, JsonlSink, ParsedRecord, Scalar,
};
pub use sink::{Collector, Fanout, NullSink, Sink};
pub use summary::render_summary;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct TracerInner {
    sink: Box<dyn Sink>,
    seq: AtomicU64,
}

/// A cheap, cloneable handle that stamps events with sequence numbers and
/// forwards them to a [`Sink`].
///
/// The disabled tracer ([`Tracer::disabled`], also [`Default`]) carries no
/// allocation at all: every [`emit`](Tracer::emit) is a single `Option`
/// check, so instrumented hot loops (per-node solver code) stay at
/// untraced speed. An enabled tracer stamps each event with one relaxed
/// atomic add.
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that drops everything at the cost of one `Option` check.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer forwarding every event to `sink`.
    #[must_use]
    pub fn new(sink: impl Sink + 'static) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink: Box::new(sink),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A tracer duplicating every event to each sink in `sinks`.
    #[must_use]
    pub fn fanout(sinks: Vec<Box<dyn Sink>>) -> Self {
        Tracer::new(Fanout::new(sinks))
    }

    /// Whether events reach a sink. Callers may use this to skip building
    /// expensive event payloads.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps `event` with the next sequence number and forwards it.
    /// A no-op on a disabled tracer.
    pub fn emit(&self, phase: Phase, event: Event) {
        if let Some(inner) = &self.inner {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            inner.sink.record(&Record { seq, phase, event });
        }
    }

    /// Total events emitted through this tracer.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.seq.load(Ordering::Relaxed))
    }

    /// Starts a span timer; the guard emits [`Event::Span`] with the
    /// elapsed microseconds when dropped. Inert on a disabled tracer.
    #[must_use]
    pub fn span(&self, phase: Phase, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            phase,
            name,
            started: self.is_enabled().then(Instant::now),
        }
    }

    /// Flushes the underlying sink (e.g. buffered JSONL output).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            inner: self.inner.clone(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Two tracers are equal when both are disabled or both share the same
/// sink (clone lineage). This exists so configuration structs holding a
/// tracer can keep deriving `PartialEq`.
impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// RAII guard produced by [`Tracer::span`]; emits [`Event::Span`] on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    phase: Phase,
    name: &'static str,
    started: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.tracer.emit(
                self.phase,
                Event::Span {
                    name: self.name,
                    micros: started.elapsed().as_micros() as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
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
        drop(t.span(Phase::Augment, "noop"));
        assert_eq!(t.total_events(), 0);
        assert_eq!(Tracer::default(), Tracer::disabled());
    }

    #[test]
    fn sequence_numbers_are_dense_and_monotone() {
        let collector = Collector::new();
        let t = Tracer::new(collector.clone());
        for d in 0..5 {
            t.emit(
                Phase::Solver,
                Event::BnbNode {
                    depth: d,
                    warm: false,
                    pivots: 0,
                    refactors: 0,
                    etas: 0,
                    propagated: false,
                },
            );
        }
        let records = collector.records();
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.total_events(), 5);
    }

    #[test]
    fn clones_share_sequence_and_counts() {
        let collector = Collector::new();
        let a = Tracer::new(collector.clone());
        let b = a.clone();
        a.emit(
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
        b.emit(
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
        assert_eq!(a.total_events(), 2);
        assert_eq!(collector.records().len(), 2);
        assert_eq!(a, b);
        assert_ne!(a, Tracer::new(Collector::new()));
        assert_ne!(a, Tracer::disabled());
    }

    #[test]
    fn span_emits_timing() {
        let collector = Collector::new();
        let t = Tracer::new(collector.clone());
        {
            let _g = t.span(Phase::Route, "route_all");
        }
        let records = collector.records();
        assert_eq!(records.len(), 1);
        match &records[0].event {
            Event::Span { name, .. } => assert_eq!(*name, "route_all"),
            other => panic!("expected span, got {other:?}"),
        }
        assert_eq!(records[0].phase, Phase::Route);
    }

    #[test]
    fn threaded_emission_is_complete() {
        let collector = Collector::new();
        let t = Tracer::new(collector.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for d in 0..100 {
                        t.emit(
                            Phase::Solver,
                            Event::BnbNode {
                                depth: d,
                                warm: false,
                                pivots: 0,
                                refactors: 0,
                                etas: 0,
                                propagated: false,
                            },
                        );
                    }
                });
            }
        });
        let records = collector.records();
        assert_eq!(records.len(), 400);
        // Every sequence number appears exactly once.
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<u64>>());
        assert_eq!(t.total_events(), 400);
    }
}
