//! Micro-benchmarks of the pipeline kernels: trace recording,
//! translation, encoding, and raw simulator event throughput.

use extrap_bench::harness::{Harness, Throughput};
use extrap_bench::{ring_program, ring_traces};
use extrap_core::{
    extrapolate, machine, CompiledProgram, Extrapolator, RecordMode, RunInput, ServicePolicy,
    SimScratch,
};
use extrap_sim::SplitMix64;
use extrap_time::{DurationNs, TimeNs};
use extrap_workloads::{Bench, Scale};
use std::hint::black_box;

/// The processor counts of the Fig-4 speedup grid.
const FIG4_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Schedules every timestamp in `times`, then drains the queue; the raw
/// event-queue hot loop.
fn drain(times: &[u64]) -> u64 {
    let mut eng: extrap_sim::Engine<u64> = extrap_sim::Engine::new();
    for (i, &t) in times.iter().enumerate() {
        eng.schedule(TimeNs(t), i as u64);
    }
    let mut count = 0u64;
    while eng.next().is_some() {
        count += 1;
    }
    count
}

/// Like [`drain`], but schedules through the engine's FIFO lane; with
/// non-decreasing `times` every schedule and pop is O(1).
fn drain_lane(times: &[u64]) -> u64 {
    let mut eng: extrap_sim::Engine<u64> = extrap_sim::Engine::new();
    for (i, &t) in times.iter().enumerate() {
        eng.schedule_lane(TimeNs(t), i as u64);
    }
    let mut count = 0u64;
    while eng.next().is_some() {
        count += 1;
    }
    count
}

fn main() {
    let mut h = Harness::from_args("kernels");

    h.bench("pcpp_runtime_8_threads_64_phases", || {
        let trace = pcpp_rt::Program::new(8)
            .with_work_model(pcpp_rt::WorkModel::unit())
            .run(async |ctx| {
                for _ in 0..64 {
                    ctx.charge(DurationNs(1_000));
                    ctx.barrier().await;
                }
            });
        black_box(trace.records.len())
    });

    // Cold trace generation for the Fig-4 grid: every suite benchmark at
    // every experiment thread count, tiny scale.
    let fig4_tiny = || -> usize {
        Bench::all()
            .iter()
            .flat_map(|bench| FIG4_PROCS.map(|n| bench.trace(n, Scale::Tiny).records.len()))
            .sum()
    };
    h.bench_throughput(
        "pcpp_generate_fig4_tiny",
        Throughput::Elements(fig4_tiny() as u64),
        || black_box(fig4_tiny()),
    );

    {
        let trace = ring_program(32, 64, 10.0, 256);
        h.bench_throughput(
            "translate_32t_64p",
            Throughput::Elements(trace.records.len() as u64),
            || black_box(extrap_trace::translate(&trace, Default::default()).unwrap()),
        );

        let encoded = extrap_trace::format::encode_program(&trace);
        h.bench_throughput(
            "encode_program",
            Throughput::Bytes(encoded.len() as u64),
            || black_box(extrap_trace::format::encode_program(&trace).len()),
        );
        h.bench_throughput(
            "decode_program",
            Throughput::Bytes(encoded.len() as u64),
            || black_box(extrap_trace::format::decode_program(&encoded).unwrap()),
        );
    }

    for &n in &[4usize, 16, 32] {
        let ts = ring_traces(n, 32, 20.0, 1_024);
        let params = machine::default_distributed();
        let events = extrapolate(&ts, &params).unwrap().events_dispatched;
        h.bench_throughput(
            &format!("extrapolate_ring_{n}t"),
            Throughput::Elements(events),
            || black_box(extrapolate(&ts, &params).unwrap().exec_time()),
        );
    }

    // The sweep hot path in isolation: compile once, replay with reused
    // scratch buffers, metrics only.
    {
        let ts = ring_traces(32, 32, 20.0, 1_024);
        let program = CompiledProgram::compile(&ts).unwrap();
        let session =
            Extrapolator::new(machine::default_distributed()).record_mode(RecordMode::MetricsOnly);
        let events = extrapolate(&ts, &machine::default_distributed())
            .unwrap()
            .events_dispatched;
        let mut scratch = SimScratch::default();
        h.bench_throughput("run_scratch_ring_32t", Throughput::Elements(events), || {
            black_box(
                session
                    .run(RunInput::CompiledScratch {
                        program: &program,
                        scratch: &mut scratch,
                    })
                    .unwrap()
                    .exec_time(),
            )
        });
    }

    // The Poll service policy on the suite: every compute segment is
    // chopped into 100 us chunks, one poll-tick event per chunk.
    {
        let programs: Vec<CompiledProgram> = Bench::all()
            .iter()
            .map(|bench| {
                let trace = bench.trace(16, Scale::Tiny);
                let set = extrap_trace::translate(&trace, Default::default()).unwrap();
                CompiledProgram::compile(&set).unwrap()
            })
            .collect();
        let session = Extrapolator::new(machine::default_distributed())
            .policy(ServicePolicy::poll_us(100.0))
            .record_mode(RecordMode::MetricsOnly);
        let mut scratch = SimScratch::default();
        let mut run_all = || -> u64 {
            programs
                .iter()
                .map(|program| {
                    session
                        .run(RunInput::CompiledScratch {
                            program,
                            scratch: &mut scratch,
                        })
                        .unwrap()
                        .events_dispatched
                })
                .sum()
        };
        let events = run_all();
        h.bench_throughput(
            "simulate_poll_suite_16t",
            Throughput::Elements(events),
            || black_box(run_all()),
        );
    }

    // The raw event queue over three timestamp shapes: uniform, skewed
    // (almost everything near-term, a sparse far-future tail), and
    // clustered (tight equal-time bursts separated by long gaps).
    let uniform: Vec<u64> = (0..10_000u64).map(|i| i % 977).collect();
    let skewed: Vec<u64> = {
        let mut rng = SplitMix64::new(0x5eed_cafe);
        (0..10_000)
            .map(|_| {
                if rng.next_below(100) == 0 {
                    1_000_000 + rng.next_below(1_000_000_000)
                } else {
                    rng.next_below(1_000)
                }
            })
            .collect()
    };
    let clustered: Vec<u64> = (0..10_000u64).map(|i| (i / 100) * 1_000_000).collect();

    h.bench("event_queue_10k_heap", || black_box(drain(&uniform)));
    h.bench("event_queue_skewed_10k_heap", || black_box(drain(&skewed)));
    h.bench("event_queue_clustered_10k_heap", || {
        black_box(drain(&clustered))
    });
    // The poll-tick shape: non-decreasing times with equal-time runs.
    let ascending: Vec<u64> = (0..10_000u64).map(|i| i / 4).collect();
    h.bench("event_queue_lane_10k", || black_box(drain_lane(&ascending)));

    h.finish();
}
