//! The trace recorder: a global virtual clock plus an append-only event
//! buffer, shared by all runtime threads.
//!
//! Every runtime thread is a future polled on the one OS thread that
//! called [`crate::Program::run`], so the clock and buffer see strictly
//! serialized access and the recorded trace is deterministic.

use extrap_time::{DurationNs, ThreadId, TimeNs};
use extrap_trace::{EventKind, ProgramTrace, TraceRecord};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Where timestamps come from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TimeSource {
    /// The deterministic virtual clock driven by `charge(...)` calls
    /// (the default; bit-reproducible traces).
    #[default]
    Virtual,
    /// The host's wall clock, as the original instrumented runtime
    /// measured.  `charge(...)` is ignored; timestamps include real
    /// scheduling and instrumentation overheads (§3.2's intrusion),
    /// which `TranslateOptions` can compensate.
    Wall,
}

/// The shared instrumentation state of one program run.
#[derive(Debug)]
pub struct Recorder {
    clock: Cell<u64>,
    records: RefCell<Vec<TraceRecord>>,
    /// Virtual cost charged for recording each event (lets experiments
    /// exercise the intrusion compensation of the translation algorithm).
    event_overhead: DurationNs,
    source: TimeSource,
    started: Instant,
}

impl Recorder {
    /// Creates a virtual-clock recorder with the given per-event
    /// recording overhead.
    pub fn new(event_overhead: DurationNs) -> Recorder {
        Recorder::with_source(event_overhead, TimeSource::Virtual)
    }

    /// Creates a recorder with an explicit time source.
    pub fn with_source(event_overhead: DurationNs, source: TimeSource) -> Recorder {
        Recorder {
            clock: Cell::new(0),
            records: RefCell::new(Vec::new()),
            event_overhead,
            source,
            started: Instant::now(),
        }
    }

    /// Current time under the configured source.
    ///
    /// Under [`TimeSource::Wall`] the clock is monotone even against a
    /// badly behaved host timer (it never reports less than the last
    /// recorded timestamp).
    pub fn now(&self) -> TimeNs {
        match self.source {
            TimeSource::Virtual => TimeNs(self.clock.get()),
            TimeSource::Wall => {
                let wall = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                let floor = self.clock.get();
                TimeNs(wall.max(floor))
            }
        }
    }

    /// Advances the virtual clock (computation by the running thread).
    /// A no-op under [`TimeSource::Wall`] — real time advances itself.
    pub fn advance(&self, d: DurationNs) {
        if self.source == TimeSource::Virtual {
            self.clock.set(self.clock.get().wrapping_add(d.as_ns()));
        }
    }

    /// Records an event for `thread` at the current clock, then charges
    /// the recording overhead (virtual mode only — in wall mode the real
    /// recording cost is already in the timestamps).
    pub fn record(&self, thread: ThreadId, kind: EventKind) {
        let time = self.now();
        self.records
            .borrow_mut()
            .push(TraceRecord { time, thread, kind });
        if self.source == TimeSource::Wall {
            // Pin monotonicity for subsequent now() calls.
            self.clock.set(self.clock.get().max(time.as_ns()));
        }
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
