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
use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};

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

/// One thread's position in the epoch-major rewrite.
#[derive(Clone, Copy, Default)]
struct Cursor {
    /// Index of the next record to rewrite.
    next: usize,
    /// Measured time of the previous record.
    orig_prev: TimeNs,
    /// Translated time of the previous record.
    adj_prev: TimeNs,
    /// The previous record was a rescheduling point (thread begin,
    /// barrier exit, or a record snapped to a barrier release).
    after_reschedule: bool,
}

/// Translates a 1-processor program trace into idealized per-thread traces.
///
/// Every thread's first event is re-based to time zero (all threads start
/// simultaneously on the target machine).
///
/// The rewrite runs epoch by epoch over per-thread copies of the records:
/// each thread's records up to and including its next `BarrierEnter`
/// keep their (compensated) deltas, the barrier releases at the maximum
/// adjusted entry, and the record after every entry snaps to that
/// release.  Only per-thread order matters, so threads that ran ahead of
/// a barrier in the measured stream translate exactly like threads that
/// waited.
///
/// # Errors
/// Returns an error if the trace is malformed, if threads disagree on the
/// barrier sequence, if barrier entry/exit events do not alternate
/// properly, or if a translated timestamp overflows.
pub fn translate(trace: &ProgramTrace, options: TranslateOptions) -> Result<TraceSet, TraceError> {
    trace.validate()?;
    precheck_barriers(trace)?;

    let mut counts = vec![0usize; trace.n_threads];
    for rec in &trace.records {
        counts[rec.thread.index()] += 1;
    }
    let mut threads: Vec<Vec<TraceRecord>> = counts.into_iter().map(Vec::with_capacity).collect();
    for rec in &trace.records {
        threads[rec.thread.index()].push(*rec);
    }

    let mut cursors = vec![Cursor::default(); threads.len()];
    // The previous epoch's release time; `None` before the first barrier.
    let mut release: Option<TimeNs> = None;
    loop {
        let mut next_release: Option<TimeNs> = None;
        for (t, (records, c)) in threads.iter_mut().zip(&mut cursors).enumerate() {
            if let Some(at) = release {
                // The record after the barrier entry (its exit, after
                // `precheck_barriers`) resumes at the release.
                let rec = &mut records[c.next];
                c.orig_prev = rec.time;
                c.adj_prev = at;
                c.after_reschedule = true;
                rec.time = at;
                c.next += 1;
            }
            while let Some(rec) = records.get_mut(c.next) {
                let adjusted = if c.next == 0 {
                    TimeNs::ZERO
                } else {
                    let mut delta = rec.time.since(c.orig_prev);
                    delta = delta.saturating_sub(options.event_overhead);
                    if c.after_reschedule {
                        delta = delta.saturating_sub(options.switch_overhead);
                    }
                    c.adj_prev
                        .checked_add(delta)
                        .ok_or(TraceError::TimeOverflow {
                            thread: ThreadId::from_index(t),
                            record: c.next,
                        })?
                };
                c.orig_prev = rec.time;
                c.adj_prev = adjusted;
                c.after_reschedule = matches!(
                    rec.kind,
                    EventKind::ThreadBegin | EventKind::BarrierExit { .. }
                );
                rec.time = adjusted;
                c.next += 1;
                if let EventKind::BarrierEnter { .. } = rec.kind {
                    next_release = next_release.max(Some(adjusted));
                    break;
                }
            }
        }
        // `precheck_barriers` guarantees every thread enters the same
        // number of barriers, so either all threads stopped at an entry
        // or all reached their ends.
        if next_release.is_none() {
            break;
        }
        release = next_release;
    }

    let set = TraceSet {
        threads: threads
            .into_iter()
            .enumerate()
            .map(|(i, records)| ThreadTrace {
                thread: ThreadId::from_index(i),
                records,
            })
            .collect(),
    };
    debug_assert!(set.validate().is_ok(), "translation broke a set invariant");
    Ok(set)
}

/// One-pass prepass computing every thread's barrier sequence and first
/// protocol violation, then judging them thread by thread: sequence
/// against thread 0, then protocol.
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
    fn timestamps_near_the_end_of_time_are_an_error() {
        // T0 exits its barrier at 2, long before T1's entry near
        // u64::MAX; T0's next delta, added to the late release,
        // overflows.
        let max = u64::MAX;
        let b = BarrierId(0);
        let rec = |time: u64, thread: u32, kind: EventKind| TraceRecord {
            time: TimeNs(time),
            thread: ThreadId(thread),
            kind,
        };
        let pt = ProgramTrace {
            n_threads: 2,
            records: vec![
                rec(0, 0, EventKind::ThreadBegin),
                rec(1, 0, EventKind::BarrierEnter { barrier: b }),
                rec(2, 0, EventKind::BarrierExit { barrier: b }),
                rec(3, 1, EventKind::ThreadBegin),
                rec(max - 1, 1, EventKind::BarrierEnter { barrier: b }),
                rec(max, 0, EventKind::ThreadEnd),
                rec(max, 1, EventKind::BarrierExit { barrier: b }),
                rec(max, 1, EventKind::ThreadEnd),
            ],
        };
        let err = translate(&pt, TranslateOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::TimeOverflow {
                    thread: ThreadId(0),
                    record: 3
                }
            ),
            "{err:?}"
        );
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
}
