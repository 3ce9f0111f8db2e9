//! The trace recorder: a global virtual clock plus an append-only event
//! buffer, shared by all runtime threads.
//!
//! Every runtime thread is a future polled on the one OS thread that
//! called [`crate::Program::run`], so the clock and buffer see strictly
//! serialized access and the recorded trace is deterministic.

use extrap_time::{DurationNs, ThreadId, TimeNs};
use extrap_trace::{EventKind, ProgramTrace, TraceRecord};
use std::cell::{Cell, RefCell};

/// The shared instrumentation state of one program run.
#[derive(Debug)]
pub struct Recorder {
    clock: Cell<u64>,
    records: RefCell<Vec<TraceRecord>>,
    /// Virtual cost charged for recording each event (lets experiments
    /// exercise the intrusion compensation of the translation algorithm).
    event_overhead: DurationNs,
}

impl Recorder {
    /// Creates a recorder with the given per-event recording overhead.
    pub fn new(event_overhead: DurationNs) -> Recorder {
        Recorder {
            clock: Cell::new(0),
            records: RefCell::new(Vec::new()),
            event_overhead,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeNs {
        TimeNs(self.clock.get())
    }

    /// Advances the virtual clock (computation by the running thread).
    pub fn advance(&self, d: DurationNs) {
        self.clock.set(self.clock.get().wrapping_add(d.as_ns()));
    }

    /// Records an event for `thread` at the current clock, then charges
    /// the recording overhead.
    pub fn record(&self, thread: ThreadId, kind: EventKind) {
        let time = self.now();
        self.records
            .borrow_mut()
            .push(TraceRecord { time, thread, kind });
        self.advance(self.event_overhead);
    }

    /// The per-event overhead this recorder charges.
    pub fn event_overhead(&self) -> DurationNs {
        self.event_overhead
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the run and produces the validated program trace.
    pub fn into_trace(self, n_threads: usize) -> ProgramTrace {
        let pt = ProgramTrace {
            n_threads,
            records: self.records.into_inner(),
        };
        pt.validate().expect("runtime produced an invalid trace");
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_stamps() {
        let r = Recorder::new(DurationNs::ZERO);
        r.record(ThreadId(0), EventKind::ThreadBegin);
        r.advance(DurationNs(500));
        r.record(ThreadId(0), EventKind::ThreadEnd);
        let t = r.into_trace(1);
        assert_eq!(t.records[0].time, TimeNs(0));
        assert_eq!(t.records[1].time, TimeNs(500));
    }

    #[test]
    fn event_overhead_is_charged_after_stamping() {
        let r = Recorder::new(DurationNs(7));
        r.record(ThreadId(0), EventKind::ThreadBegin);
        assert_eq!(r.now(), TimeNs(7));
        r.record(ThreadId(0), EventKind::ThreadEnd);
        let t = r.into_trace(1);
        assert_eq!(t.records[1].time, TimeNs(7));
    }

    #[test]
    fn len_counts_records() {
        let r = Recorder::new(DurationNs::ZERO);
        assert!(r.is_empty());
        r.record(ThreadId(0), EventKind::Marker { id: 1 });
        assert_eq!(r.len(), 1);
    }
}
