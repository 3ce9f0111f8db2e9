//! Program execution: run *n* runtime threads as futures polled in id
//! order on the calling thread, give each a [`ThreadCtx`], and collect
//! the instrumented 1-processor trace.
//!
//! A thread suspends only inside [`ThreadCtx::barrier`], so one poll
//! pass over all threads executes exactly one barrier epoch: thread 0
//! runs until its next barrier, then thread 1, and so on.  That is the
//! paper's "n threads on a single processor under a non-preemptive
//! threads package" (§3.2), deterministic by construction.

use crate::clock::WorkModel;
use crate::instrument::Recorder;
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId};
use extrap_trace::{EventKind, ProgramTrace};
use std::cell::Cell;
use std::future::{self, Future};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// A configured data-parallel program: thread count, host work model,
/// and instrumentation overhead.
#[derive(Clone, Debug)]
pub struct Program {
    n_threads: usize,
    work: WorkModel,
    event_overhead: DurationNs,
}

impl Program {
    /// A program of `n_threads` threads on the default (Sun 4) host.
    pub fn new(n_threads: usize) -> Program {
        assert!(n_threads > 0, "need at least one thread");
        Program {
            n_threads,
            work: WorkModel::default(),
            event_overhead: DurationNs::ZERO,
        }
    }

    /// Overrides the host work model.
    pub fn with_work_model(mut self, work: WorkModel) -> Program {
        self.work = work;
        self
    }

    /// Charges a virtual cost for recording each trace event (exercises
    /// the intrusion compensation in trace translation).
    pub fn with_event_overhead(mut self, overhead: DurationNs) -> Program {
        self.event_overhead = overhead;
        self
    }

    /// Thread count.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Runs `body` once per thread and returns the recorded 1-processor
    /// program trace.
    ///
    /// `body` is shared by all threads; per-thread state lives in the
    /// [`ThreadCtx`].  Each thread is a future polled on the calling
    /// thread, in id order, one pass per barrier epoch.  A panic in any
    /// thread propagates.  The run also panics if the threads disagree
    /// on the number of barriers, or if a body suspends anywhere but in
    /// [`ThreadCtx::barrier`].
    pub fn run<F>(&self, body: F) -> ProgramTrace
    where
        F: AsyncFn(&mut ThreadCtx<'_>),
    {
        let n = self.n_threads;
        let recorder = Recorder::new(self.event_overhead);
        let parked = Cell::new(false);
        let body = &body;
        let mut threads: Vec<_> = (0..n)
            .map(|i| {
                let mut ctx = ThreadCtx {
                    id: ThreadId::from_index(i),
                    n_threads: n,
                    work: self.work,
                    recorder: &recorder,
                    parked: &parked,
                    barriers: 0,
                };
                Box::pin(async move {
                    ctx.recorder.record(ctx.id, EventKind::ThreadBegin);
                    body(&mut ctx).await;
                    ctx.recorder.record(ctx.id, EventKind::ThreadEnd);
                }) as Pin<Box<dyn Future<Output = ()> + '_>>
            })
            .collect();

        let mut cx = Context::from_waker(Waker::noop());
        let mut entered = vec![0usize; n];
        loop {
            let mut finished = Vec::new();
            for (t, thread) in threads.iter_mut().enumerate() {
                match thread.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => finished.push(t),
                    Poll::Pending if parked.replace(false) => entered[t] += 1,
                    Poll::Pending => panic!(
                        "pcpp-rt: thread {t} of a {n}-thread program suspended outside \
                         `barrier()`; a body may only await barriers"
                    ),
                }
            }
            if finished.len() == n {
                break;
            }
            assert!(
                finished.is_empty(),
                "pcpp-rt: mismatched barrier counts in a {n}-thread program: barriers \
                 entered per thread {entered:?}, but threads {finished:?} finished while \
                 the others wait at a barrier"
            );
        }
        drop(threads);
        recorder.into_trace(n)
    }
}

/// Per-thread execution context handed to the program body.
pub struct ThreadCtx<'a> {
    id: ThreadId,
    n_threads: usize,
    work: WorkModel,
    recorder: &'a Recorder,
    /// Set by [`ThreadCtx::barrier`] when it suspends, so the executor
    /// can tell a barrier from any other `Pending`.
    parked: &'a Cell<bool>,
    barriers: usize,
}

impl ThreadCtx<'_> {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Total threads in the program.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The host work model.
    pub fn work(&self) -> &WorkModel {
        &self.work
    }

    /// Charges raw virtual time.
    pub fn charge(&mut self, d: DurationNs) {
        self.recorder.advance(d);
    }

    /// Charges `n` floating-point operations.
    pub fn charge_flops(&mut self, n: u64) {
        self.charge(self.work.flops(n));
    }

    /// Charges `n` integer/logic operations.
    pub fn charge_int_ops(&mut self, n: u64) {
        self.charge(self.work.int_ops(n));
    }

    /// Charges `n` memory operations.
    pub fn charge_mem_ops(&mut self, n: u64) {
        self.charge(self.work.mem_ops(n));
    }

    /// Charges one collection-element access overhead.
    pub fn charge_elem_access(&mut self) {
        self.charge(self.work.elem_access);
    }

    /// Enters the next global barrier (all threads must call `barrier`
    /// the same number of times — the data-parallel execution model).
    /// The thread suspends here until every other thread has entered
    /// the same barrier.
    pub async fn barrier(&mut self) {
        let b = BarrierId::from_index(self.barriers);
        self.barriers += 1;
        self.recorder
            .record(self.id, EventKind::BarrierEnter { barrier: b });
        let mut suspended = false;
        future::poll_fn(|_| {
            if suspended {
                Poll::Ready(())
            } else {
                suspended = true;
                self.parked.set(true);
                Poll::Pending
            }
        })
        .await;
        self.recorder
            .record(self.id, EventKind::BarrierExit { barrier: b });
    }

    /// Barriers passed so far by this thread.
    pub fn barriers_passed(&self) -> usize {
        self.barriers
    }

    /// Records a user marker event.
    pub fn marker(&mut self, id: u32) {
        self.recorder.record(self.id, EventKind::Marker { id });
    }

    /// Records a remote element read (used by [`crate::Collection`];
    /// public so custom containers can instrument themselves).
    pub fn record_remote_read(
        &mut self,
        owner: ThreadId,
        element: ElementId,
        declared_bytes: u32,
        actual_bytes: u32,
    ) {
        debug_assert_ne!(owner, self.id, "remote read of a local element");
        self.recorder.record(
            self.id,
            EventKind::RemoteRead {
                owner,
                element,
                declared_bytes,
                actual_bytes,
            },
        );
    }

    /// Records a remote element write.
    pub fn record_remote_write(
        &mut self,
        owner: ThreadId,
        element: ElementId,
        declared_bytes: u32,
        actual_bytes: u32,
    ) {
        debug_assert_ne!(owner, self.id, "remote write of a local element");
        self.recorder.record(
            self.id,
            EventKind::RemoteWrite {
                owner,
                element,
                declared_bytes,
                actual_bytes,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::TimeNs;
    use std::cell::RefCell;

    #[test]
    fn phase_structure_matches_phase_program_builder() {
        // A program where every thread charges 1000ns then barriers,
        // twice, must produce the same trace as the synthetic builder.
        let trace = Program::new(3)
            .with_work_model(WorkModel::unit())
            .run(async |ctx| {
                for _ in 0..2 {
                    ctx.charge(DurationNs(1_000));
                    ctx.barrier().await;
                }
            });
        let mut synth = extrap_trace::PhaseProgram::new(3);
        synth.push_uniform_phase(DurationNs(1_000));
        synth.push_uniform_phase(DurationNs(1_000));
        assert_eq!(trace, synth.record());
    }

    #[test]
    fn translated_runtime_trace_collapses() {
        let trace = Program::new(4).run(async |ctx| {
            ctx.charge(DurationNs(500));
            ctx.barrier().await;
        });
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(500));
    }

    #[test]
    fn skewed_work_is_recorded_per_thread() {
        let trace = Program::new(2).run(async |ctx| {
            let mine = (ctx.id().0 as u64 + 1) * 100;
            ctx.charge(DurationNs(mine));
            ctx.barrier().await;
        });
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        // Thread 1 computes 200ns; barrier releases then.
        assert_eq!(ts.makespan(), TimeNs(200));
    }

    #[test]
    fn charge_helpers_scale_by_work_model() {
        let trace = Program::new(1)
            .with_work_model(WorkModel {
                flop: DurationNs(10),
                int_op: DurationNs(2),
                mem_op: DurationNs(3),
                elem_access: DurationNs(5),
            })
            .run(async |ctx| {
                ctx.charge_flops(4); // 40
                ctx.charge_int_ops(5); // 10
                ctx.charge_mem_ops(2); // 6
                ctx.charge_elem_access(); // 5
            });
        let end = trace.records.last().unwrap().time;
        assert_eq!(end, TimeNs(61));
    }

    #[test]
    fn markers_appear_in_trace() {
        let trace = Program::new(1).run(async |ctx| {
            ctx.marker(42);
        });
        assert!(trace
            .records
            .iter()
            .any(|r| r.kind == EventKind::Marker { id: 42 }));
    }

    #[test]
    fn event_overhead_inflates_clock() {
        let trace = Program::new(1)
            .with_event_overhead(DurationNs(9))
            .run(async |ctx| {
                ctx.charge(DurationNs(100));
            });
        // begin (overhead 9) + 100 compute -> end at 109.
        assert_eq!(trace.records.last().unwrap().time, TimeNs(109));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Program::new(5).run(async |ctx| {
                for p in 0..4 {
                    ctx.charge(DurationNs((ctx.id().0 as u64 + 1) * (p + 1) * 10));
                    ctx.barrier().await;
                }
            })
        };
        assert_eq!(run(), run());
    }

    /// Runs `n` threads that each log (thread, step) around `phases`
    /// barriers; returns the execution order.
    fn run_order(n: usize, phases: usize) -> Vec<(usize, usize)> {
        let log = RefCell::new(Vec::new());
        Program::new(n).run(async |ctx| {
            for ph in 0..phases {
                log.borrow_mut().push((ctx.id().index(), ph));
                ctx.barrier().await;
            }
            log.borrow_mut().push((ctx.id().index(), phases));
        });
        log.into_inner()
    }

    #[test]
    fn threads_run_in_id_order_per_phase() {
        let order = run_order(3, 2);
        let expected: Vec<(usize, usize)> = (0..=2usize)
            .flat_map(|ph| (0..3).map(move |t| (t, ph)))
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn single_thread_runs_straight_through() {
        let order = run_order(1, 3);
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn many_threads_many_phases_are_deterministic() {
        assert_eq!(run_order(8, 5), run_order(8, 5));
    }

    #[test]
    #[should_panic(expected = "mismatched barrier counts in a 2-thread program: \
                               barriers entered per thread [1, 0]")]
    fn mismatched_barrier_counts_panic_instead_of_hanging() {
        Program::new(2).run(async |ctx| {
            if ctx.id().0 == 0 {
                ctx.barrier().await;
            }
        });
    }

    #[test]
    #[should_panic(expected = "thread 1 of a 3-thread program suspended outside `barrier()`")]
    fn awaiting_a_foreign_future_panics() {
        Program::new(3).run(async |ctx| {
            ctx.barrier().await;
            if ctx.id().0 == 1 {
                std::future::pending::<()>().await;
            }
        });
    }

    #[test]
    fn body_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Program::new(3).run(async |ctx| {
                if ctx.id().0 == 1 {
                    panic!("boom");
                }
                ctx.barrier().await;
            });
        });
        assert!(result.is_err());
    }
}
