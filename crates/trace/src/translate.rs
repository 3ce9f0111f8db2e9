//! The trace translation algorithm of §3.2.
//!
//! Input: the single, globally time-stamped event stream of an *n*-thread
//! program measured on **one** processor under non-preemptive scheduling.
//! Output: *n* per-thread traces whose timestamps reflect the *ideal*
//! concurrent execution on *n* processors, under the paper's idealizing
//! assumptions: instant remote accesses, instant barrier synchronization
//! (threads exit a barrier the moment the last thread enters it), and
//! unperturbed thread computation.
//!
//! The rules, verbatim from the paper:
//!
//! * **Non-synchronization events** keep their per-thread inter-event
//!   deltas: if `e1`, `e2` are consecutive events of one thread with
//!   measured times `t1`, `t2`, and `e1` was adjusted to `t1'`, then `e2`
//!   is adjusted to `t2 - t1 + t1'`.
//! * **Barrier exits** are snapped to the adjusted barrier-entry timestamp
//!   of the *last* thread to enter that barrier.
//!
//! The algorithm also optionally compensates for measurement intrusion:
//! a fixed per-event recording overhead and a per-reschedule thread-switch
//! overhead are subtracted from the measured deltas ("the trace
//! translation algorithm is easily modified to handle the overhead for
//! recording the events ... and switching the threads").

use crate::error::TraceError;
use crate::event::{EventKind, ProgramTrace, ThreadTrace, TraceRecord, TraceSet};
use crate::stream::{ChunkSource, ProgramStream};
use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};
use std::collections::VecDeque;
use std::mem::size_of;

/// Intrusion-compensation knobs for translation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslateOptions {
    /// Cost of recording one event in the measured run; subtracted from
    /// every per-thread inter-event delta (saturating at zero).
    pub event_overhead: DurationNs,
    /// Cost of a thread switch in the measured run; additionally
    /// subtracted from the delta following each rescheduling point (thread
    /// begin and barrier exit).
    pub switch_overhead: DurationNs,
}

/// Receives translated records from the [`EpochTranslator`].
///
/// Records arrive in per-thread time order (each thread's records are
/// emitted in its own stream order), but threads interleave in epoch
/// resolution order, **not** global time order.  Sinks that need a
/// global view must merge per thread; sinks that fold per thread (a
/// [`TraceSet`] builder, the incremental compiler) consume them
/// directly.
pub trait TranslateSink {
    /// Accepts one translated record for `thread`.  Fallible so a sink's
    /// own errors (e.g. a compile failure) stop translation.
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError>;
}

impl<F: FnMut(usize, TraceRecord) -> Result<(), TraceError>> TranslateSink for F {
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError> {
        self(thread, rec)
    }
}

/// Counters reported by a completed streaming translation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslateStats {
    /// Total input records consumed.
    pub records: u64,
    /// High-water mark of the translator's transient state (held
    /// records, barrier-id and release windows, per-thread cursors) —
    /// the O(threads + live-epoch) bound, excluding whatever the sink
    /// itself retains.
    pub peak_resident_bytes: usize,
}

/// Per-thread translation state inside the streaming machine.
struct ThreadXlate {
    orig_prev: TimeNs,
    adj_prev: TimeNs,
    started: bool,
    /// True when the previous translated event was a rescheduling point
    /// (thread begin or barrier exit).
    after_reschedule: bool,
    /// Barriers this thread has entered so far.
    entered: usize,
    /// The next record is this thread's barrier exit: snap it to the
    /// release time of epoch `entered - 1`.
    pending_snap: bool,
    /// Barrier entered but not yet exited (protocol tracking).
    pending_barrier: Option<BarrierId>,
    /// Records received while this thread is ahead of the last resolved
    /// epoch; replayed when the epoch's release time becomes final.
    held: VecDeque<TraceRecord>,
}

impl ThreadXlate {
    fn new() -> ThreadXlate {
        ThreadXlate {
            orig_prev: TimeNs::ZERO,
            adj_prev: TimeNs::ZERO,
            started: false,
            after_reschedule: false,
            entered: 0,
            pending_snap: false,
            pending_barrier: None,
            held: VecDeque::new(),
        }
    }
}

/// The streaming §3.2 translation machine: consumes the global
/// 1-processor record stream in order and emits idealized per-thread
/// records to a [`TranslateSink`] as soon as their timestamps are final.
///
/// A record's translated time is final once the release time of every
/// barrier epoch before it is known, i.e. once every thread has entered
/// that barrier.  Threads that run ahead of the slowest thread have
/// their records held back (that is the only buffering); when the
/// laggard's entry resolves an epoch, the held records drain.  Resident
/// state is therefore O(threads + live-epoch): the per-thread cursors
/// plus the records and barrier bookkeeping of epochs still in flight.
///
/// The whole-trace [`translate`] is an adapter over this machine, so the
/// two paths are byte-identical by construction.  The machine performs
/// the same validity checks incrementally (monotone clock, thread
/// range, barrier protocol, barrier-sequence agreement) with identical
/// messages; only the *attribution* of a [`TraceError::BarrierMismatch`]
/// can differ (the streaming check compares against the first thread to
/// reach an epoch, the whole-trace prepass against thread 0), which is
/// why the adapter keeps the historical prepass.
pub struct EpochTranslator {
    options: TranslateOptions,
    threads: Vec<ThreadXlate>,
    /// Barrier ids per epoch, established by the first thread to enter;
    /// pruned below the slowest thread's epoch.
    barrier_ids: VecDeque<BarrierId>,
    ids_base: usize,
    /// Accumulating release times (max adjusted entry) per epoch;
    /// pruned once snapped by every thread.
    release: VecDeque<TimeNs>,
    release_base: usize,
    /// Epochs whose release time is final (every thread has entered).
    resolved: usize,
    /// Threads with `entered > resolved`; when all are, an epoch resolves.
    ahead: usize,
    /// Held records across all threads (for O(1) residency accounting).
    held_records: usize,
    next_record: usize,
    last_time: TimeNs,
    peak_resident: usize,
}

impl EpochTranslator {
    /// A fresh machine for an `n_threads`-thread program stream.
    pub fn new(n_threads: usize, options: TranslateOptions) -> EpochTranslator {
        let mut m = EpochTranslator {
            options,
            threads: (0..n_threads).map(|_| ThreadXlate::new()).collect(),
            barrier_ids: VecDeque::new(),
            ids_base: 0,
            release: VecDeque::new(),
            release_base: 0,
            resolved: 0,
            ahead: 0,
            held_records: 0,
            next_record: 0,
            last_time: TimeNs::ZERO,
            peak_resident: 0,
        };
        m.note_peak();
        m
    }

    /// Feeds one record of the global stream, emitting every translated
    /// record it finalizes.
    pub fn push(
        &mut self,
        rec: &TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        let record = self.next_record;
        self.next_record += 1;
        let t = rec.thread.index();
        if t >= self.threads.len() {
            return Err(TraceError::BadThread {
                record,
                thread: rec.thread,
                n_threads: self.threads.len(),
            });
        }
        if rec.time < self.last_time {
            return Err(TraceError::TimeRegression { record });
        }
        self.last_time = rec.time;
        if self.threads[t].entered > self.resolved {
            // Thread is ahead of the slowest epoch: its release time is
            // not final yet, so hold the record.
            self.threads[t].held.push_back(*rec);
            self.held_records += 1;
            self.note_peak();
            return Ok(());
        }
        self.step(t, *rec, sink)?;
        self.drain(sink)?;
        self.note_peak();
        Ok(())
    }

    /// Flushes end-of-stream checks.  Call exactly once after the last
    /// [`push`](EpochTranslator::push); emits nothing (all translatable
    /// records were emitted eagerly) but rejects streams whose threads
    /// disagree on the barrier count or leave a barrier unexited.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        let n = self.threads.len();
        if n == 0 {
            return Ok(());
        }
        // Held records never made it through `step`; fold them into the
        // barrier census and protocol check before judging the stream.
        let mut total_entered = vec![0usize; n];
        let mut protocol_err: Vec<Option<TraceError>> = (0..n).map(|_| None).collect();
        for (t, st) in self.threads.iter().enumerate() {
            total_entered[t] = st.entered;
            let thread = ThreadId::from_index(t);
            let mut pending = st.pending_barrier;
            for rec in &st.held {
                match rec.kind {
                    EventKind::BarrierEnter { barrier } => {
                        total_entered[t] += 1;
                        if protocol_err[t].is_none() {
                            if let Some(p) = pending {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("entered {barrier} while still inside {p}"),
                                });
                            }
                            pending = Some(barrier);
                        }
                    }
                    EventKind::BarrierExit { barrier } if protocol_err[t].is_none() => {
                        match pending.take() {
                            Some(p) if p == barrier => {}
                            Some(p) => {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("exited {barrier} while inside {p}"),
                                });
                            }
                            None => {
                                protocol_err[t] = Some(TraceError::BarrierProtocol {
                                    thread,
                                    detail: format!("exited {barrier} without entering it"),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
            if protocol_err[t].is_none() {
                if let Some(p) = pending {
                    protocol_err[t] = Some(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("never exited {p}"),
                    });
                }
            }
        }
        for (t, &count) in total_entered.iter().enumerate().skip(1) {
            if count != total_entered[0] {
                return Err(TraceError::BarrierMismatch {
                    thread: ThreadId::from_index(t),
                });
            }
        }
        for err in &mut protocol_err {
            if let Some(e) = err.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Input records consumed so far.
    pub fn records_seen(&self) -> u64 {
        self.next_record as u64
    }

    /// Current transient state, by size-of arithmetic (no allocator
    /// hooks; `forbid(unsafe_code)` holds).  Counts live records and
    /// window entries, not capacities, so it is O(1) to maintain.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>()
            + self.threads.len() * size_of::<ThreadXlate>()
            + self.held_records * size_of::<TraceRecord>()
            + self.barrier_ids.len() * size_of::<BarrierId>()
            + self.release.len() * size_of::<TimeNs>()
    }

    /// High-water mark of [`resident_bytes`](EpochTranslator::resident_bytes).
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    fn note_peak(&mut self) {
        let r = self.resident_bytes();
        if r > self.peak_resident {
            self.peak_resident = r;
        }
    }

    /// Processes one record of a thread that is *not* ahead (its epoch's
    /// release time, if needed, is final).
    fn step(
        &mut self,
        t: usize,
        rec: TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        if self.threads[t].pending_snap {
            // This is the record after a barrier entry: the barrier
            // exit, snapped to the release time (the last thread's
            // adjusted entry) — mirroring whole-trace phase 2, which
            // snaps unconditionally.
            let epoch = self.threads[t].entered - 1;
            let release = self.release[epoch - self.release_base];
            self.protocol_update(t, &rec)?;
            let st = &mut self.threads[t];
            st.pending_snap = false;
            st.orig_prev = rec.time;
            st.adj_prev = release;
            st.started = true;
            st.after_reschedule = true;
            return sink.emit(
                t,
                TraceRecord {
                    time: release,
                    thread: rec.thread,
                    kind: rec.kind,
                },
            );
        }
        self.protocol_update(t, &rec)?;
        if let EventKind::BarrierEnter { barrier } = rec.kind {
            let epoch = self.threads[t].entered;
            // Sequence agreement, against the id established by the
            // first thread to reach this epoch.
            let idx = epoch - self.ids_base;
            match self.barrier_ids.get(idx) {
                Some(&established) if established != barrier => {
                    return Err(TraceError::BarrierMismatch {
                        thread: ThreadId::from_index(t),
                    });
                }
                None => {
                    debug_assert_eq!(idx, self.barrier_ids.len());
                    self.barrier_ids.push_back(barrier);
                }
                Some(_) => {}
            }
            self.adjust_emit(t, &rec, sink)?;
            let entry = self.threads[t].adj_prev;
            let ridx = epoch - self.release_base;
            if ridx == self.release.len() {
                self.release.push_back(entry);
            } else {
                let r = &mut self.release[ridx];
                *r = (*r).max(entry);
            }
            let st = &mut self.threads[t];
            st.entered += 1;
            st.pending_snap = true;
            if st.entered == self.resolved + 1 {
                self.ahead += 1;
            }
            Ok(())
        } else {
            self.adjust_emit(t, &rec, sink)
        }
    }

    /// Resolves epochs while every thread is past them, replaying held
    /// records (which may resolve further epochs; the loop, not
    /// recursion, handles the cascade).
    fn drain(&mut self, sink: &mut dyn TranslateSink) -> Result<(), TraceError> {
        while !self.threads.is_empty() && self.ahead == self.threads.len() {
            self.resolved += 1;
            self.ahead = self
                .threads
                .iter()
                .filter(|st| st.entered > self.resolved)
                .count();
            for t in 0..self.threads.len() {
                while self.threads[t].entered <= self.resolved {
                    let Some(rec) = self.threads[t].held.pop_front() else {
                        break;
                    };
                    self.held_records -= 1;
                    self.step(t, rec, sink)?;
                }
            }
            self.prune();
        }
        Ok(())
    }

    /// Drops barrier-id and release entries no thread can read again.
    fn prune(&mut self) {
        let mut ids_needed = usize::MAX;
        let mut rel_needed = usize::MAX;
        for st in &self.threads {
            ids_needed = ids_needed.min(st.entered);
            rel_needed = rel_needed.min(st.entered - usize::from(st.pending_snap));
        }
        while self.ids_base < ids_needed && !self.barrier_ids.is_empty() {
            self.barrier_ids.pop_front();
            self.ids_base += 1;
        }
        while self.release_base < rel_needed && !self.release.is_empty() {
            self.release.pop_front();
            self.release_base += 1;
        }
    }

    /// The per-thread delta adjustment (§3.2 rule one), emitted directly.
    fn adjust_emit(
        &mut self,
        t: usize,
        rec: &TraceRecord,
        sink: &mut dyn TranslateSink,
    ) -> Result<(), TraceError> {
        let st = &mut self.threads[t];
        let adj_time = if !st.started {
            st.started = true;
            TimeNs::ZERO
        } else {
            let mut delta = rec.time.since(st.orig_prev);
            delta = delta.saturating_sub(self.options.event_overhead);
            if st.after_reschedule {
                delta = delta.saturating_sub(self.options.switch_overhead);
            }
            st.adj_prev + delta
        };
        st.orig_prev = rec.time;
        st.adj_prev = adj_time;
        st.after_reschedule = matches!(
            rec.kind,
            EventKind::ThreadBegin | EventKind::BarrierExit { .. }
        );
        sink.emit(
            t,
            TraceRecord {
                time: adj_time,
                thread: rec.thread,
                kind: rec.kind,
            },
        )
    }

    /// Incremental entry/exit alternation check, with the same messages
    /// as the whole-trace prepass.
    fn protocol_update(&mut self, t: usize, rec: &TraceRecord) -> Result<(), TraceError> {
        let st = &mut self.threads[t];
        let thread = ThreadId::from_index(t);
        match rec.kind {
            EventKind::BarrierEnter { barrier } => {
                if let Some(p) = st.pending_barrier {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("entered {barrier} while still inside {p}"),
                    });
                }
                st.pending_barrier = Some(barrier);
            }
            EventKind::BarrierExit { barrier } => match st.pending_barrier.take() {
                Some(p) if p == barrier => {}
                Some(p) => {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("exited {barrier} while inside {p}"),
                    })
                }
                None => {
                    return Err(TraceError::BarrierProtocol {
                        thread,
                        detail: format!("exited {barrier} without entering it"),
                    })
                }
            },
            _ => {}
        }
        Ok(())
    }
}

/// Translates a 1-processor program trace into idealized per-thread traces.
///
/// Every thread's first event is re-based to time zero (all threads start
/// simultaneously on the target machine).
///
/// A thin adapter over the streaming [`EpochTranslator`] — the whole-trace
/// and [`translate_stream`] paths are byte-identical by construction.  The
/// historical prepass (barrier-sequence and protocol checks against thread
/// 0) is kept so error *attribution* on invalid traces stays exactly what
/// it always was; on traces that pass it, the machine's own incremental
/// checks can never fire.
///
/// # Errors
/// Returns an error if the trace is malformed, if threads disagree on the
/// barrier sequence, or if barrier entry/exit events do not alternate
/// properly.
pub fn translate(trace: &ProgramTrace, options: TranslateOptions) -> Result<TraceSet, TraceError> {
    trace.validate()?;
    precheck_barriers(trace)?;

    // The machine emits exactly one record per input record, so each
    // thread's output is sized up front: no regrowth, and a cached set
    // is charged for its records only.
    let mut counts = vec![0usize; trace.n_threads];
    for rec in &trace.records {
        counts[rec.thread.index()] += 1;
    }
    let mut out: Vec<Vec<TraceRecord>> = counts.into_iter().map(Vec::with_capacity).collect();
    let mut machine = EpochTranslator::new(trace.n_threads, options);
    {
        let mut sink = |t: usize, rec: TraceRecord| {
            out[t].push(rec);
            Ok(())
        };
        for rec in &trace.records {
            machine.push(rec, &mut sink)?;
        }
    }
    machine.finish()?;

    let set = TraceSet {
        threads: out
            .into_iter()
            .enumerate()
            .map(|(i, records)| ThreadTrace {
                thread: ThreadId::from_index(i),
                records,
            })
            .collect(),
    };
    set.validate()?;
    Ok(set)
}

/// Streaming translation: consumes [`ProgramStream`] chunks directly,
/// emitting translated records to `sink` as their timestamps finalize.
/// Resident state is the machine's O(threads + live-epoch) bound plus the
/// stream's fixed decode window; the input trace is never materialized.
///
/// Performs the same validity checks as [`translate`] incrementally (see
/// [`EpochTranslator`] for the one attribution caveat on invalid input);
/// on valid input the emitted records are byte-identical to the
/// whole-trace path.
pub fn translate_stream<S: ChunkSource>(
    stream: &mut ProgramStream<S>,
    options: TranslateOptions,
    sink: &mut dyn TranslateSink,
) -> Result<TranslateStats, TraceError> {
    let mut machine = EpochTranslator::new(stream.n_threads(), options);
    while let Some(chunk) = stream.next_chunk()? {
        for rec in chunk {
            machine.push(rec, sink)?;
        }
    }
    machine.finish()?;
    Ok(TranslateStats {
        records: machine.records_seen(),
        peak_resident_bytes: machine.peak_resident_bytes(),
    })
}

/// One-pass prepass computing every thread's barrier sequence and first
/// protocol violation, then judging them in the historical order (thread
/// by thread: sequence against thread 0, then protocol) so whole-trace
/// error attribution is unchanged from the pre-streaming implementation.
fn precheck_barriers(trace: &ProgramTrace) -> Result<(), TraceError> {
    let n = trace.n_threads;
    if n == 0 {
        return Ok(());
    }
    let mut seqs: Vec<Vec<BarrierId>> = vec![Vec::new(); n];
    let mut pending: Vec<Option<BarrierId>> = vec![None; n];
    let mut first_err: Vec<Option<TraceError>> = (0..n).map(|_| None).collect();
    for rec in &trace.records {
        let t = rec.thread.index();
        let thread = ThreadId::from_index(t);
        match rec.kind {
            EventKind::BarrierEnter { barrier } => {
                seqs[t].push(barrier);
                if first_err[t].is_none() {
                    if let Some(p) = pending[t] {
                        first_err[t] = Some(TraceError::BarrierProtocol {
                            thread,
                            detail: format!("entered {barrier} while still inside {p}"),
                        });
                    }
                    pending[t] = Some(barrier);
                }
            }
            EventKind::BarrierExit { barrier } if first_err[t].is_none() => {
                match pending[t].take() {
                    Some(p) if p == barrier => {}
                    Some(p) => {
                        first_err[t] = Some(TraceError::BarrierProtocol {
                            thread,
                            detail: format!("exited {barrier} while inside {p}"),
                        });
                    }
                    None => {
                        first_err[t] = Some(TraceError::BarrierProtocol {
                            thread,
                            detail: format!("exited {barrier} without entering it"),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    for t in 0..n {
        if seqs[t] != seqs[0] {
            return Err(TraceError::BarrierMismatch {
                thread: ThreadId::from_index(t),
            });
        }
        if let Some(e) = first_err[t].take() {
            return Err(e);
        }
        if let Some(p) = pending[t] {
            return Err(TraceError::BarrierProtocol {
                thread: ThreadId::from_index(t),
                detail: format!("never exited {p}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PhaseProgram, PhaseWork};

    fn uniform(n: usize, phases: &[u64]) -> ProgramTrace {
        let mut p = PhaseProgram::new(n);
        for &c in phases {
            p.push_uniform_phase(DurationNs(c));
        }
        p.record()
    }

    #[test]
    fn uniform_phases_collapse_to_parallel_time() {
        // 4 threads, two phases of 1000ns each: on 1 processor the run
        // takes 8000ns of compute; translated, the makespan is 2000ns.
        let pt = uniform(4, &[1_000, 1_000]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(2_000));
        for t in &ts.threads {
            assert_eq!(t.end_time(), TimeNs(2_000));
        }
    }

    #[test]
    fn skewed_phase_waits_for_slowest() {
        // Thread 1 computes 3x longer; the barrier releases at the slowest
        // thread's entry.
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(100),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(300),
                accesses: vec![],
            },
        ]);
        p.push_uniform_phase(DurationNs(50));
        let ts = translate(&p.record(), TranslateOptions::default()).unwrap();
        // Barrier 0 releases at 300; both threads then compute 50 more.
        assert_eq!(ts.makespan(), TimeNs(350));
        let exits: Vec<_> = ts.threads[0]
            .records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::BarrierExit { .. }))
            .map(|r| r.time)
            .collect();
        assert_eq!(exits[0], TimeNs(300));
        assert_eq!(exits[1], TimeNs(350));
    }

    #[test]
    fn deltas_are_preserved_for_non_sync_events() {
        let pt = uniform(3, &[500, 700, 900]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        // Every thread's compute deltas (exit -> next enter) must equal the
        // original phase lengths.
        for t in &ts.threads {
            let mut compute = Vec::new();
            let mut last_resume = TimeNs::ZERO;
            for r in &t.records {
                match r.kind {
                    EventKind::BarrierEnter { .. } => {
                        compute.push(r.time.since(last_resume).as_ns())
                    }
                    EventKind::BarrierExit { .. } | EventKind::ThreadBegin => last_resume = r.time,
                    _ => {}
                }
            }
            assert_eq!(compute, vec![500, 700, 900]);
        }
    }

    #[test]
    fn event_overhead_is_subtracted() {
        // One phase of 1000ns; with 100ns/event overhead the compute delta
        // between begin and barrier-enter shrinks to 900ns.
        let pt = uniform(1, &[1_000]);
        let ts = translate(
            &pt,
            TranslateOptions {
                event_overhead: DurationNs(100),
                switch_overhead: DurationNs::ZERO,
            },
        )
        .unwrap();
        let enter = ts.threads[0]
            .records
            .iter()
            .find(|r| matches!(r.kind, EventKind::BarrierEnter { .. }))
            .unwrap();
        assert_eq!(enter.time, TimeNs(900));
    }

    #[test]
    fn switch_overhead_applies_after_reschedule() {
        let pt = uniform(1, &[1_000, 1_000]);
        let ts = translate(
            &pt,
            TranslateOptions {
                event_overhead: DurationNs::ZERO,
                switch_overhead: DurationNs(200),
            },
        )
        .unwrap();
        // Phase 0 delta (after ThreadBegin, a reschedule point): 800.
        // Barrier exits instantly; phase 1 delta (after exit): 800.
        assert_eq!(ts.makespan(), TimeNs(1_600));
    }

    #[test]
    fn single_thread_translation_is_identity_shift() {
        let pt = uniform(1, &[123, 456]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(579));
    }

    #[test]
    fn remote_events_keep_relative_position() {
        use extrap_time::{ElementId, ThreadId};
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(400),
                accesses: vec![crate::builder::PhaseAccess {
                    after: DurationNs(150),
                    owner: ThreadId(1),
                    element: ElementId(3),
                    declared_bytes: 64,
                    actual_bytes: 8,
                    write: false,
                }],
            },
            PhaseWork {
                compute: DurationNs(400),
                accesses: vec![],
            },
        ]);
        let ts = translate(&p.record(), TranslateOptions::default()).unwrap();
        let remote = ts.threads[0]
            .records
            .iter()
            .find(|r| r.kind.is_remote())
            .unwrap();
        assert_eq!(remote.time, TimeNs(150));
    }

    #[test]
    fn mismatched_barrier_sequences_rejected() {
        use crate::builder::ProgramTraceBuilder;
        let mut b = ProgramTraceBuilder::new(2);
        for (t, barrier) in [(0u32, 0u32), (1, 1)] {
            b.emit(ThreadId(t), EventKind::ThreadBegin);
            b.emit(
                ThreadId(t),
                EventKind::BarrierEnter {
                    barrier: BarrierId(barrier),
                },
            );
            b.emit(
                ThreadId(t),
                EventKind::BarrierExit {
                    barrier: BarrierId(barrier),
                },
            );
            b.emit(ThreadId(t), EventKind::ThreadEnd);
        }
        let pt = b.finish();
        assert!(matches!(
            translate(&pt, TranslateOptions::default()),
            Err(TraceError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn unmatched_barrier_exit_rejected() {
        use crate::builder::ProgramTraceBuilder;
        let mut b = ProgramTraceBuilder::new(1);
        b.emit(ThreadId(0), EventKind::ThreadBegin);
        b.emit(
            ThreadId(0),
            EventKind::BarrierExit {
                barrier: BarrierId(0),
            },
        );
        let pt = b.finish();
        assert!(matches!(
            translate(&pt, TranslateOptions::default()),
            Err(TraceError::BarrierProtocol { .. })
        ));
    }

    #[test]
    fn no_phase_program_translates() {
        let pt = uniform(3, &[]);
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(ts.n_threads(), 3);
        assert_eq!(ts.makespan(), TimeNs::ZERO);
    }

    fn sample_remote_program() -> ProgramTrace {
        use crate::builder::PhaseAccess;
        use extrap_time::ElementId;
        let access = |after: u64, owner: usize, element: u32, write: bool| PhaseAccess {
            after: DurationNs(after),
            owner: ThreadId::from_index(owner),
            element: ElementId(element),
            declared_bytes: 64,
            actual_bytes: 16,
            write,
        };
        let mut p = PhaseProgram::new(4);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(120),
                accesses: vec![access(30, 2, 7, false), access(60, 3, 3, true)],
            },
            PhaseWork {
                compute: DurationNs(340),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(90),
                accesses: vec![access(45, 0, 11, true)],
            },
            PhaseWork {
                compute: DurationNs(200),
                accesses: vec![],
            },
        ]);
        p.push_uniform_phase(DurationNs(75));
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(10),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(500),
                accesses: vec![access(100, 0, 1, false)],
            },
            PhaseWork {
                compute: DurationNs(40),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(40),
                accesses: vec![],
            },
        ]);
        p.record()
    }

    /// Runs [`translate_stream`] into a closure sink that regroups the
    /// emitted records per thread, as `translate` does.
    fn translate_via_stream(
        stream: &mut ProgramStream<crate::stream::SliceSource<'_>>,
        opts: TranslateOptions,
    ) -> Result<(TraceSet, TranslateStats), TraceError> {
        let mut out: Vec<Vec<TraceRecord>> = vec![Vec::new(); stream.n_threads()];
        let mut sink = |t: usize, rec: TraceRecord| {
            out[t].push(rec);
            Ok(())
        };
        let stats = translate_stream(stream, opts, &mut sink)?;
        let set = TraceSet {
            threads: out
                .into_iter()
                .enumerate()
                .map(|(i, records)| ThreadTrace {
                    thread: ThreadId::from_index(i),
                    records,
                })
                .collect(),
        };
        set.validate()?;
        Ok((set, stats))
    }

    #[test]
    fn streaming_translate_matches_whole_trace() {
        use crate::stream::{SliceSource, StreamArena};
        let pt = sample_remote_program();
        let opts = TranslateOptions {
            event_overhead: DurationNs(3),
            switch_overhead: DurationNs(5),
        };
        let expected = translate(&pt, opts).unwrap();
        let bytes = crate::format::encode_program(&pt);
        for (window, chunk) in [(1, 1), (29, 3), (64 * 1024, 4096)] {
            let mut stream =
                ProgramStream::with_options(SliceSource(&bytes), StreamArena::new(), window, chunk)
                    .unwrap();
            let (set, stats) = translate_via_stream(&mut stream, opts).unwrap();
            assert_eq!(set, expected, "window {window}, chunk {chunk}");
            assert_eq!(stats.records, pt.records.len() as u64);
            assert!(stats.peak_resident_bytes > 0);
        }
    }

    #[test]
    fn streaming_translate_rejects_what_whole_trace_rejects() {
        use crate::builder::ProgramTraceBuilder;
        use crate::stream::SliceSource;
        let mut b = ProgramTraceBuilder::new(2);
        b.emit(ThreadId(0), EventKind::ThreadBegin);
        b.emit(ThreadId(1), EventKind::ThreadBegin);
        b.advance(DurationNs(10));
        b.emit(
            ThreadId(0),
            EventKind::BarrierEnter {
                barrier: BarrierId(0),
            },
        );
        b.advance(DurationNs(20));
        b.emit(
            ThreadId(1),
            EventKind::BarrierEnter {
                barrier: BarrierId(9),
            },
        );
        let pt = b.finish();
        let bytes = crate::format::encode_program(&pt);
        let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
        let err = translate_via_stream(&mut stream, TranslateOptions::default()).unwrap_err();
        assert!(matches!(err, TraceError::BarrierMismatch { .. }));
        assert!(translate(&pt, TranslateOptions::default()).is_err());
    }
}
