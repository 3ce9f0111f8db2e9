//! Equivalence guarantees of the hot-path machinery: a compiled program
//! replayed through `Extrapolator::run` (with or without reused scratch
//! buffers) must be indistinguishable from the classic trace path, and
//! `RecordMode::MetricsOnly` must change nothing but the predicted
//! trace.

use extrap_core::{
    machine, sweep::CachedTrace, CompiledProgram, Extrapolator, RecordMode, RunInput,
    ServicePolicy, SimParams, SimScratch,
};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, TraceSet};

/// A communicating workload: every thread reads from its right
/// neighbour, computes, and synchronizes — twice.
fn ring(n: usize) -> TraceSet {
    let mut p = PhaseProgram::new(n);
    for round in 0..2 {
        let works = (0..n)
            .map(|t| PhaseWork {
                compute: DurationNs::from_us(50.0 + (t as f64) * 3.0 + (round as f64)),
                accesses: vec![PhaseAccess {
                    after: DurationNs::from_us(10.0),
                    owner: ThreadId(((t + 1) % n) as u32),
                    element: ElementId(t as u32),
                    declared_bytes: 1024,
                    actual_bytes: 128,
                    write: round % 2 == 1,
                }],
            })
            .collect();
        p.push_phase(works);
    }
    extrap_trace::translate(&p.record(), Default::default()).unwrap()
}

fn param_grid() -> Vec<SimParams> {
    let mut poll = machine::cm5();
    poll.policy = ServicePolicy::poll_us(25.0);
    let mut slow = machine::default_distributed();
    slow.mips_ratio = 2.5;
    let mut fast = machine::default_distributed();
    fast.mips_ratio = 0.41;
    vec![machine::ideal(), machine::cm5(), poll, slow, fast]
}

#[test]
fn compiled_run_matches_trace_run_exactly() {
    let ts = ring(6);
    let program = CompiledProgram::compile(&ts).unwrap();
    for params in param_grid() {
        let session = Extrapolator::new(params);
        let classic = session.run(&ts).unwrap();
        let compiled = session.run(&program).unwrap();
        assert_eq!(classic.per_thread, compiled.per_thread);
        assert_eq!(classic.predicted, compiled.predicted);
        assert_eq!(classic.events_dispatched, compiled.events_dispatched);
        assert_eq!(classic.barriers, compiled.barriers);
        assert_eq!(classic.network, compiled.network);
    }
}

#[test]
fn scratch_reuse_does_not_leak_state_between_runs() {
    // One scratch across different programs, sizes, and parameter sets —
    // every run must match its fresh-buffer twin.
    let mut scratch = SimScratch::default();
    for n in [2usize, 8, 3] {
        let ts = ring(n);
        let program = CompiledProgram::compile(&ts).unwrap();
        for params in param_grid() {
            let session = Extrapolator::new(params);
            let fresh = session.run(&program).unwrap();
            let reused = session
                .run(RunInput::CompiledScratch {
                    program: &program,
                    scratch: &mut scratch,
                })
                .unwrap();
            assert_eq!(fresh.per_thread, reused.per_thread);
            assert_eq!(fresh.predicted, reused.predicted);
            assert_eq!(fresh.events_dispatched, reused.events_dispatched);
        }
    }
}

#[test]
fn metrics_only_changes_nothing_but_the_predicted_trace() {
    let ts = ring(5);
    let program = CompiledProgram::compile(&ts).unwrap();
    for params in param_grid() {
        let full = Extrapolator::new(params.clone()).run(&program).unwrap();
        let lean = Extrapolator::new(params)
            .record_mode(RecordMode::MetricsOnly)
            .run(&program)
            .unwrap();
        assert_eq!(
            full.per_thread, lean.per_thread,
            "metrics must be identical"
        );
        assert_eq!(full.exec_time(), lean.exec_time());
        assert_eq!(full.events_dispatched, lean.events_dispatched);
        assert_eq!(full.barriers, lean.barriers);
        assert_eq!(full.network, lean.network);
        assert!(lean.predicted.threads.is_empty(), "no predicted trace");
        assert!(!full.predicted.threads.is_empty());
    }
}

#[test]
fn full_mode_reserves_exact_predicted_capacity() {
    let ts = ring(4);
    let program = CompiledProgram::compile(&ts).unwrap();
    let pred = Extrapolator::new(machine::cm5()).run(&program).unwrap();
    for (ct, tt) in program.threads().iter().zip(&pred.predicted.threads) {
        assert_eq!(
            ct.predicted_records,
            tt.records.len(),
            "compiler-counted capacity must equal the emitted record count"
        );
    }
}

#[test]
fn record_mode_round_trips_through_config_text() {
    let p = SimParams {
        record_mode: RecordMode::MetricsOnly,
        ..Default::default()
    };
    let text = p.to_config_text();
    assert!(text.contains("RecordMode = metrics-only"));
    let back = SimParams::from_config_text(&text).unwrap();
    assert_eq!(back, p);
}

#[test]
fn cached_trace_pairs_traces_with_their_program() {
    let ts = ring(3);
    let cached = CachedTrace::new(ring(3)).unwrap();
    assert_eq!(cached.traces().expect("whole-trace entry").n_threads(), 3);
    assert_eq!(cached.program().n_threads(), 3);
    assert_eq!(cached.n_threads(), ts.n_threads());
}
