//! `whatif_warm`: what-if questions against a warm trace cache.  Set-up
//! generates, translates and compiles the seven suite benchmarks at
//! P ∈ {8, 16, 32}; the loop then asks one question per request — one
//! parameter set of the `MipsRatio × Policy × BarrierAlgorithm` grid
//! (a quarter of them under `Strategy = repr:64:0.05`) swept over all
//! 21 traces, metrics only — and one session is a pass over the whole
//! grid in a seeded order.  No trace is generated in the loop, so it
//! measures the simulation engine, its event queue and `repr`.

use crate::span::{Ctx, Tracer};
use crate::stats::{accuracy, Digest, SplitMix64};
use crate::{
    closed_loop, metric, setup_samples, timed, Config, Measured, Metric, Outcome, Tally, SETUP_REPS,
};
use extrap_core::{
    machine, parallel_map, parallel_map_with, sweep, BarrierAlgorithm, CompiledProgram,
    Extrapolator, RecordMode, RunInput, ServicePolicy, SharedTraceCache, SimParams, SimScratch,
    SimStrategy, SweepJob,
};
use extrap_refsim::RefMachine;
use extrap_time::DurationNs;
use extrap_trace::{translate, TraceError};
use extrap_workloads::{Bench, Scale};
use std::sync::Mutex;
use std::time::Instant;

const PROCS: [usize; 3] = [8, 16, 32];

type Key = (&'static str, usize);

fn keys() -> Vec<(Bench, usize)> {
    Bench::all()
        .into_iter()
        .flat_map(|b| PROCS.map(|n| (b, n)))
        .collect()
}

/// One question of the grid, with the index of its exact counterpart
/// when it runs under the representative strategy.
struct Question {
    params: SimParams,
    exact_twin: Option<usize>,
}

/// 27 exact parameter sets (`MipsRatio × Policy × BarrierAlgorithm`)
/// plus the 9 linear-barrier ones again under `repr:64:0.05`.
fn questions() -> Vec<Question> {
    let mut out = Vec::new();
    let repr = SimStrategy::parse("repr:64:0.05").expect("valid strategy");
    for ratio in [0.5, 1.0, 2.0] {
        for policy in [
            ServicePolicy::NoInterrupt,
            ServicePolicy::Interrupt,
            ServicePolicy::poll_us(100.0),
        ] {
            for (algorithm, by_msgs) in [
                (BarrierAlgorithm::Linear, true),
                (BarrierAlgorithm::Tree { arity: 4 }, false),
                (BarrierAlgorithm::Hardware, false),
            ] {
                let mut p = machine::default_distributed();
                p.record_mode = RecordMode::MetricsOnly;
                p.mips_ratio = ratio;
                p.policy = policy;
                p.barrier.algorithm = algorithm;
                p.barrier.by_msgs = by_msgs;
                p.barrier.hardware_latency = DurationNs::from_us(5.0);
                out.push(Question {
                    params: p,
                    exact_twin: None,
                });
            }
        }
    }
    let exact = out.len();
    for twin in (0..exact).step_by(3) {
        let mut p = out[twin].params.clone();
        p.strategy = repr;
        out.push(Question {
            params: p,
            exact_twin: Some(twin),
        });
    }
    out
}

/// The warm cache, with each trace's record count and generation time.
struct Warm {
    cache: SharedTraceCache<Key>,
    records: Vec<usize>,
    generate_s: Vec<f64>,
}

/// Set-up: every trace generated, translated and compiled into a fresh
/// cache with `workers` threads.
fn build_cache(scale: Scale, workers: usize, tracer: &Tracer) -> Result<Warm, String> {
    let cache = SharedTraceCache::new();
    let built = parallel_map(&keys(), workers, |i, &(bench, n)| {
        let ctx = Ctx::root("setup", i as u64, 0);
        tracer.span("setup.job", ctx, |ctx| {
            let g0 = Instant::now();
            let program = tracer.span("pcpp.generate", ctx, |_| bench.trace(n, scale));
            let generate_s = g0.elapsed().as_secs_f64();
            let set = tracer
                .span("trace.translate", ctx, |_| {
                    translate(&program, Default::default())
                })
                .map_err(|e| e.to_string())?;
            // The cache compiles the set it is handed; the closure
            // returns at once, so this span is the compile.
            tracer
                .span("core.compile", ctx, |_| {
                    cache.get_or_translate((bench.name(), n), || Ok(set))
                })
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((program.records.len(), generate_s))
        })
    });
    let (records, generate_s) = built
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    Ok(Warm {
        cache,
        records,
        generate_s,
    })
}

/// A warm-cache miss is a failure of the workload, never a generation.
fn no_generation(key: &Key) -> Result<extrap_trace::TraceSet, TraceError> {
    Err(TraceError::Format {
        detail: format!("warm cache missed {key:?}"),
    })
}

/// `(exec_time ns, events_dispatched)` of every prediction of a pass, in
/// grid order (question major, trace minor), whatever order it ran in.
type Pass = Vec<Option<(u64, u64)>>;

fn pass_digest(pass: &Pass) -> Option<String> {
    let mut d = Digest::new();
    for p in pass {
        let (t, e) = (*p)?;
        d = d.u64(t).u64(e);
    }
    Some(d.hex())
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let scale = cfg.scale.unwrap_or(Scale::Paper);
    let workers = cfg.nproc;
    let grid = questions();
    let keys = keys();
    let (built, first_setup) = timed(|| build_cache(scale, workers, tracer));
    let warm = built?;
    let cache = &warm.cache;
    let want = cfg.reference_digest(scale, "grid");
    if want.is_none() {
        eprintln!(
            "perfbench: whatif_warm: no reference digest for scale {}",
            crate::scale_name(scale)
        );
    }

    let latest: Mutex<Pass> = Mutex::new(Vec::new());
    let session = |tracer: &Tracer, lane: u32, group: u64, index: u64, tally: &mut Tally| {
        let mut order: Vec<usize> = (0..grid.len()).collect();
        SplitMix64::new(cfg.seed ^ (index << 32)).shuffle(&mut order);
        let mut pass: Pass = vec![None; grid.len() * keys.len()];
        let mut ok_requests = Vec::with_capacity(grid.len());
        for q in order {
            let jobs: Vec<SweepJob<Key>> = keys
                .iter()
                .map(|&(b, n)| SweepJob {
                    key: (b.name(), n),
                    params: grid[q].params.clone(),
                })
                .collect();
            let t0 = Instant::now();
            let results = tracer.span("core.sweep", Ctx::root("measure", group, lane), |_| {
                sweep(&jobs, workers, cache, no_generation)
            });
            let mut ok = true;
            for (k, r) in results.iter().enumerate() {
                match r {
                    Ok(p) => {
                        pass[q * keys.len() + k] =
                            Some((p.exec_time().as_ns(), p.events_dispatched))
                    }
                    Err(e) => {
                        eprintln!("perfbench: whatif_warm: {e}");
                        ok = false;
                    }
                }
            }
            tally.request("sweep", t0, ok);
            tally.predictions += results.len() as u64;
            ok_requests.push(ok);
        }
        // The pass is checked whole: a digest mismatch fails every
        // request of the pass that had not failed already.
        let got = pass_digest(&pass);
        if got.is_none() || got != want {
            eprintln!(
                "perfbench: whatif_warm grid digest {}, reference {}",
                got.as_deref().unwrap_or("incomplete"),
                want.as_deref().unwrap_or("missing")
            );
            tally.failed += ok_requests.iter().filter(|&&ok| ok).count() as u64;
        }
        *latest.lock().expect("latest poisoned") = pass;
    };
    let measured = closed_loop(1, cfg.loop_seconds(), &Tracer::new(false), session);
    let translations_before = cache.translations();
    let traced = cfg
        .trace
        .then(|| closed_loop(1, cfg.loop_seconds(), tracer, session));
    let misses = cache.translations() - translations_before;
    let pass = latest.into_inner().expect("latest poisoned");

    // Accuracy against the reference machine on the workload's own
    // traces, on the CM-5 parameters it models: groups are processor
    // counts, items the seven benchmarks.
    let mut cm5 = machine::cm5();
    cm5.record_mode = RecordMode::MetricsOnly;
    let points = parallel_map(&keys, workers, |i, &(b, n)| {
        let cached = cache
            .get_or_translate((b.name(), n), || no_generation(&(b.name(), n)))
            .map_err(|e| e.to_string())?;
        let set = cached.traces().ok_or("cache entry without its trace set")?;
        let pred = Extrapolator::new(cm5.clone())
            .run(cached.program())
            .map_err(|e| e.to_string())?;
        let reference = tracer
            .span("refsim.measure", Ctx::root("check", i as u64, 0), |_| {
                RefMachine::new(cm5.clone()).measure(set)
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((pred.exec_time().as_ms(), reference.exec_time().as_ms()))
    });
    let points = points.into_iter().collect::<Result<Vec<_>, _>>()?;
    let groups: Vec<Vec<(f64, f64)>> = (0..PROCS.len())
        .map(|pi| {
            (0..Bench::all().len())
                .map(|bi| points[bi * PROCS.len() + pi])
                .collect()
        })
        .collect();
    let acc = accuracy(&groups);

    let quiet = Tracer::new(false);
    let setup_s = setup_samples(first_setup, SETUP_REPS, || {
        build_cache(scale, workers, &quiet)
    })?;

    let mut check_failed = 0;
    let layers = match &traced {
        Some(t) => {
            let (layers, mismatches) =
                replay_pass(&grid, &keys, &warm, &pass, tracer, workers, t, misses);
            check_failed += mismatches;
            layers
        }
        None => Vec::new(),
    };

    Ok(Outcome {
        setup_s,
        measured,
        traced,
        accuracy: acc,
        check_failed,
        layers,
        extra_layers: Vec::new(),
        host: vec![
            ("scale", crate::scale_name(scale).to_string()),
            ("sweep_workers", workers.to_string()),
            ("daemon_workers", "0 (no daemon)".to_string()),
            ("client_connections", "1 (in-process)".to_string()),
            ("questions_per_pass", grid.len().to_string()),
        ],
    })
}

/// Replays one pass job by job through `Extrapolator::run` (exact) or
/// the cache's memoized `ReprPlan::run` (representative) — the calls
/// `sweep` makes inside — and derives the per-layer metrics.  Returns
/// them with the number of jobs whose replay differs from the pass.
#[allow(clippy::too_many_arguments)]
fn replay_pass(
    grid: &[Question],
    keys: &[(Bench, usize)],
    warm: &Warm,
    pass: &Pass,
    tracer: &Tracer,
    workers: usize,
    traced: &Measured,
    misses: usize,
) -> (Vec<Metric>, u64) {
    let cache = &warm.cache;
    let jobs: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|q| (0..keys.len()).map(move |k| (q, k)))
        .collect();
    let replayed = parallel_map_with(
        &jobs,
        workers,
        SimScratch::default,
        |scratch, i, &(q, k)| {
            let (b, n) = keys[k];
            let cached = cache
                .get_or_translate((b.name(), n), || no_generation(&(b.name(), n)))
                .map_err(|e| e.to_string())?;
            let params = &grid[q].params;
            let t0 = Instant::now();
            let pred = tracer
                .span("core.simulate", Ctx::root("replay", i as u64, 0), |_| {
                    match params.strategy {
                        SimStrategy::Representative {
                            max_clusters,
                            tolerance,
                        } => match cached.repr_plan(max_clusters, tolerance) {
                            Some(plan) => plan.run(params, scratch),
                            // The cache's memoized "no repetition" verdict:
                            // sweep goes straight to the exact path.
                            None => {
                                let mut exact = params.clone();
                                exact.strategy = SimStrategy::Exact;
                                simulate(&exact, cached.program(), scratch)
                            }
                        },
                        SimStrategy::Exact => simulate(params, cached.program(), scratch),
                    }
                })
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((
                pred.exec_time().as_ns(),
                pred.events_dispatched,
                t0.elapsed().as_secs_f64(),
            ))
        },
    );
    let mut mismatches = 0u64;
    let mut events = vec![0u64; jobs.len()];
    let mut busy = 0.0;
    for (i, r) in replayed.iter().enumerate() {
        match r {
            Ok((t, e, s)) => {
                events[i] = *e;
                busy += s;
                if pass[i] != Some((*t, *e)) {
                    mismatches += 1;
                }
            }
            Err(err) => {
                eprintln!("perfbench: whatif_warm replay: {err}");
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        eprintln!("perfbench: whatif_warm: {mismatches} replayed predictions differ from the pass");
    }

    // Representative runs that engaged (fewer events than their exact
    // twin) and their share of the twin's events.
    let (mut repr_runs, mut engaged, mut repr_events, mut twin_events) = (0u64, 0u64, 0u64, 0u64);
    for (q, question) in grid.iter().enumerate() {
        if let Some(twin) = question.exact_twin {
            for k in 0..keys.len() {
                let (r, e) = (events[q * keys.len() + k], events[twin * keys.len() + k]);
                repr_runs += 1;
                engaged += u64::from(r < e);
                repr_events += r;
                twin_events += e;
            }
        }
    }

    let st = tracer.self_times("replay");
    let simulate_s = st.get("core.simulate").map_or(0.0, |v| v.0);
    let setup = tracer.self_times("setup");
    let setup_secs = |name: &str| setup.get(name).map_or(0.0, |v| v.0);
    let generate = setup_secs("pcpp.generate");
    let total_records: usize = warm.records.iter().sum();
    let total_events: u64 = events.iter().sum();
    let answer = traced.answer_s();
    let lookups = traced.tally.predictions.max(1) as f64;
    let layers = vec![
        metric("pcpp.generate_s", generate, "s"),
        metric("pcpp.records", total_records as f64, "count"),
        metric(
            "pcpp.ns_per_record",
            generate * 1e9 / total_records.max(1) as f64,
            "ns",
        ),
        metric(
            "pcpp.job_max_s",
            warm.generate_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        metric("pcpp.busy_share", 0.0, "ratio"),
        metric("trace.translate_s", setup_secs("trace.translate"), "s"),
        metric("core.compile_s", setup_secs("core.compile"), "s"),
        metric("core.simulate_s", simulate_s, "s"),
        metric(
            "core.simulate_calls",
            st.get("core.simulate").map_or(0, |v| v.1) as f64,
            "count",
        ),
        metric("core.events", total_events as f64, "count"),
        metric(
            "core.ns_per_event",
            simulate_s * 1e9 / total_events.max(1) as f64,
            "ns",
        ),
        metric(
            "core.simulate_share",
            simulate_s / (workers as f64 * answer),
            "ratio",
        ),
        metric(
            "core.repr_engaged_ratio",
            engaged as f64 / repr_runs.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.repr_event_ratio",
            repr_events as f64 / twin_events.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.cache_translations",
            cache.translations() as f64,
            "count",
        ),
        metric(
            "core.cache_hit_ratio",
            1.0 - misses as f64 / lookups,
            "ratio",
        ),
        metric(
            "core.cache_resident_mb",
            cache.resident_bytes() as f64 / (1 << 20) as f64,
            "MB",
        ),
        metric(
            "core.sweep_parallel_eff",
            busy / (workers as f64 * answer),
            "ratio",
        ),
        metric(
            "refsim.measure_s",
            tracer
                .self_times("check")
                .get("refsim.measure")
                .map_or(0.0, |v| v.0),
            "s",
        ),
        metric("serve.busy_retry_ratio", 0.0, "ratio"),
        metric("serve.coalesce_ratio", 0.0, "ratio"),
        metric("serve.translations", 0.0, "count"),
        metric("serve.evictions", 0.0, "count"),
        metric("proto.bytes_per_session", 0.0, "bytes"),
    ];
    (layers, mismatches)
}

fn simulate(
    params: &SimParams,
    program: &CompiledProgram,
    scratch: &mut SimScratch,
) -> Result<extrap_core::Prediction, extrap_core::ExtrapError> {
    Extrapolator::new(params.clone()).run(RunInput::CompiledScratch { program, scratch })
}
