//! The ingest pipeline, end to end: a synthetic program trace on disk →
//! [`read_program_file`] (read, decode, validate) → [`translate`] →
//! [`CompiledProgram::compile`] → one extrapolation run.  Reported as
//! MB/s over the on-disk trace bytes, for a small input and a "huge"
//! one holding the same per-epoch structure with 10x the barrier
//! epochs.  The rows are still called `pipeline_stream*` so
//! `check_bench_regression.py` finds their baselines in
//! `BENCH_pipeline.json`.
//!
//! `--scale huge` multiplies both inputs' epoch counts by 10.

use extrap_bench::harness::{Harness, Throughput};
use extrap_core::{machine, CompiledProgram, Extrapolator};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::builder::{PhaseAccess, PhaseProgram, PhaseWork};
use extrap_trace::reader::read_program_file;
use extrap_trace::{translate, ProgramTrace};
use std::hint::black_box;
use std::path::PathBuf;

const THREADS: usize = 16;
const BASE_EPOCHS: usize = 48;

/// A phase-structured program whose record count scales with `epochs`
/// while its per-epoch structure (threads, accesses, elements) stays
/// fixed.
fn synthetic(epochs: usize) -> ProgramTrace {
    let mut p = PhaseProgram::new(THREADS);
    for e in 0..epochs {
        let phase: Vec<PhaseWork> = (0..THREADS)
            .map(|t| {
                let owner = (t + 1) % THREADS;
                PhaseWork {
                    compute: DurationNs::from_us(40.0 + (t % 4) as f64),
                    accesses: vec![
                        PhaseAccess {
                            after: DurationNs::from_us(10.0),
                            owner: ThreadId::from_index(owner),
                            element: ElementId(owner as u32),
                            declared_bytes: 256,
                            actual_bytes: 64,
                            write: false,
                        },
                        PhaseAccess {
                            after: DurationNs::from_us(25.0),
                            owner: ThreadId::from_index(owner),
                            element: ElementId(owner as u32),
                            declared_bytes: 256,
                            actual_bytes: 64,
                            write: e % 2 == 0,
                        },
                    ],
                }
            })
            .collect();
        p.push_phase(phase);
    }
    p.record()
}

/// Writes `trace` to a bench-private temp file, returning its path and
/// on-disk size.
fn write_temp(trace: &ProgramTrace, tag: &str) -> (PathBuf, u64) {
    let path = std::env::temp_dir().join(format!(
        "extrap-bench-pipeline-{}-{tag}.xtrp",
        std::process::id()
    ));
    extrap_trace::writer::write_program_file(&path, trace).expect("write synthetic trace");
    let len = std::fs::metadata(&path)
        .expect("stat synthetic trace")
        .len();
    (path, len)
}

/// One full pipeline pass over the on-disk trace: read → translate →
/// compile → one extrapolation.  Returns the predicted makespan in ns.
fn run_pipeline(path: &PathBuf) -> u64 {
    let trace = read_program_file(path).expect("read trace");
    let set = translate(&trace, Default::default()).expect("translate");
    let program = CompiledProgram::compile(&set).expect("compile");
    let pred = Extrapolator::new(machine::default_distributed())
        .run(&program)
        .expect("extrapolate");
    pred.exec_time().0
}

fn main() {
    // `--scale huge` multiplies the base epoch count by 10 (see the
    // module doc); the Harness consumes the flag's value itself.
    let args: Vec<String> = std::env::args().collect();
    let mult = match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("small") => 1,
        Some("huge") => 10,
        Some(other) => {
            eprintln!("unknown scale {other:?} (small|huge)");
            std::process::exit(2);
        }
    };
    let small_trace = synthetic(BASE_EPOCHS * mult);
    let huge_trace = synthetic(BASE_EPOCHS * mult * 10);
    let (small_path, small_bytes) = write_temp(&small_trace, "small");
    let (huge_path, huge_bytes) = write_temp(&huge_trace, "huge");
    println!(
        "pipeline inputs: small {} records ({small_bytes} B), huge {} records ({huge_bytes} B)",
        small_trace.records.len(),
        huge_trace.records.len()
    );

    // Predictions sanity: both inputs extrapolate to something.
    let (small_pred, huge_pred) = (run_pipeline(&small_path), run_pipeline(&huge_path));
    assert!(small_pred > 0 && huge_pred > small_pred);

    let mut h = Harness::from_args("pipeline");

    // Throughput over the on-disk bytes, small and huge.
    h.bench_throughput("pipeline_stream", Throughput::Bytes(small_bytes), || {
        black_box(run_pipeline(&small_path))
    });
    h.bench_throughput(
        "pipeline_stream_huge",
        Throughput::Bytes(huge_bytes),
        || black_box(run_pipeline(&huge_path)),
    );
    h.finish();

    let _ = std::fs::remove_file(&small_path);
    let _ = std::fs::remove_file(&huge_path);
}
