//! Property test: the streaming pipeline is byte- and metric-identical
//! to the whole-trace path across random programs × stream chunk/window
//! geometries.
//!
//! Two equivalences are checked per case:
//! * streaming translate (`translate_stream` into a closure sink that
//!   regroups records per thread) produces exactly the bytes
//!   `encode_set(translate(whole_trace))` produces;
//! * the fused translate+compile ([`compile_program_stream`]) produces
//!   a [`CompiledProgram`] equal to compiling the whole-trace set — and,
//!   spot checked, the same extrapolated prediction.
//!
//! Driven by a deterministic SplitMix64 case generator instead of
//! `proptest` (crates.io is unreachable in the build environment).

use extrap_core::{compile_program_stream, machine, CompiledProgram};
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::stream::{ProgramStream, SliceSource, StreamArena};
use extrap_trace::{
    format, translate, translate_stream, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace,
    ThreadTrace, TraceRecord, TraceSet, TranslateOptions,
};

const CASES: u64 = 96;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A random phase-structured program: 1–5 threads, 1–12 barrier
/// epochs, skewed per-thread compute, 0–3 remote accesses per thread
/// per phase (ordered offsets, random owner/element/size/direction).
fn random_program(rng: &mut Rng) -> ProgramTrace {
    let threads = rng.range(1, 6) as usize;
    let phases = rng.range(1, 13) as usize;
    let mut p = PhaseProgram::new(threads);
    for _ in 0..phases {
        let work: Vec<PhaseWork> = (0..threads)
            .map(|_| {
                let compute = rng.range(1_000, 50_000);
                let n_acc = rng.range(0, 4) as usize;
                let mut offsets: Vec<u64> = (0..n_acc).map(|_| rng.range(0, compute + 1)).collect();
                offsets.sort_unstable();
                let accesses = offsets
                    .into_iter()
                    .map(|after| PhaseAccess {
                        after: DurationNs(after),
                        owner: ThreadId::from_index(rng.range(0, threads as u64) as usize),
                        element: ElementId(rng.range(0, 8) as u32),
                        declared_bytes: rng.range(8, 4096) as u32,
                        actual_bytes: rng.range(1, 256) as u32,
                        write: rng.next().is_multiple_of(2),
                    })
                    .collect();
                PhaseWork {
                    compute: DurationNs(compute),
                    accesses,
                }
            })
            .collect();
        p.push_phase(work);
    }
    p.record()
}

fn random_options(rng: &mut Rng) -> TranslateOptions {
    TranslateOptions {
        event_overhead: DurationNs(rng.range(0, 3) * 500),
        switch_overhead: DurationNs(rng.range(0, 3) * 700),
    }
}

#[test]
fn streaming_pipeline_matches_whole_trace_path() {
    for case in 0..CASES {
        let mut rng = Rng(0x51_7EA4 ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        let pt = random_program(&mut rng);
        let opts = random_options(&mut rng);
        let window = rng.range(32, 4096) as usize;
        let chunk = rng.range(1, 64) as usize;
        let what = format!(
            "case {case}: {} threads, {} records, window {window}, chunk {chunk}",
            pt.n_threads,
            pt.records.len()
        );

        // The whole-trace reference.
        let expected_set = translate(&pt, opts).unwrap();
        let expected_bytes = format::encode_set(&expected_set);
        let expected_program = CompiledProgram::compile(&expected_set).unwrap();
        let raw = format::encode_program(&pt);

        // Streaming translate, regrouped per thread: identical bytes.
        let mut stream =
            ProgramStream::with_options(SliceSource(&raw), StreamArena::new(), window, chunk)
                .unwrap();
        let mut runs: Vec<Vec<TraceRecord>> = vec![Vec::new(); stream.n_threads()];
        let mut sink = |t: usize, rec: TraceRecord| {
            runs[t].push(rec);
            Ok(())
        };
        translate_stream(&mut stream, opts, &mut sink).unwrap();
        let streamed_set = TraceSet {
            threads: runs
                .into_iter()
                .enumerate()
                .map(|(i, records)| ThreadTrace {
                    thread: ThreadId::from_index(i),
                    records,
                })
                .collect(),
        };
        assert_eq!(
            format::encode_set(&streamed_set),
            expected_bytes,
            "streamed set differs from whole-trace bytes ({what})"
        );

        // Fused translate+compile: equal program, all records seen.
        let mut stream =
            ProgramStream::with_options(SliceSource(&raw), StreamArena::new(), window, chunk)
                .unwrap();
        let (program, stats) = compile_program_stream(&mut stream, opts).unwrap();
        assert_eq!(program, expected_program, "fused compile differs ({what})");
        assert_eq!(stats.records, pt.records.len() as u64, "{what}");

        // Spot-check metric identity end to end: the streamed program
        // extrapolates to the identical prediction.
        if case % 16 == 0 {
            let params = machine::default_distributed();
            let whole = extrap_core::Extrapolator::new(params.clone())
                .run(&expected_set)
                .unwrap();
            let streamed = extrap_core::Extrapolator::new(params)
                .run(&program)
                .unwrap();
            assert_eq!(
                whole.exec_time(),
                streamed.exec_time(),
                "prediction differs ({what})"
            );
            assert_eq!(whole.predicted, streamed.predicted, "{what}");
        }
    }
}
