//! `served_mix`: an in-process `extrap serve` daemon on loopback, driven
//! by a closed loop of `nproc` client connections.  Set-up generates the
//! seven suite benchmarks at P = 16, encodes them as `XTRP` program
//! traces, starts the daemon and warms its sweep cache.  Each session
//! submits one payload (the daemon decodes, translates and compiles it
//! at admission), simulates it under two machines, analyzes it and
//! evicts it; every [`SWEEP_EVERY`]-th session of a connection also
//! sweeps its benchmark by name.  Every served answer must equal the
//! in-process answer for the same input.

use crate::span::{Ctx, Tracer};
use crate::stats::{accuracy, median, percentile, SplitMix64};
use crate::{
    closed_loop, metric, setup_samples, timed, Config, Measured, Metric, Outcome, Tally, SETUP_REPS,
};
use extrap_analyze::{analyze, render, Format};
use extrap_core::{
    compile_program_stream, machine, parallel_map, sweep, CompiledProgram, Extrapolator,
    RecordMode, SharedTraceCache, SimParams, SweepJob,
};
use extrap_proto::{
    encode_request, encode_response, PredictionSummary, Request, Response, ServerStats, SweepRow,
    SweepSpec,
};
use extrap_refsim::RefMachine;
use extrap_serve::client::Client;
use extrap_serve::{ServeConfig, Server};
use extrap_trace::format::{decode_program, encode_program};
use extrap_trace::stream::{ProgramStream, SliceSource};
use extrap_trace::translate;
use extrap_workloads::{Bench, Scale};
use std::sync::Mutex;
use std::time::Instant;

/// Threads of every submitted program.
const THREADS: usize = 16;
/// A connection's every this-many-th session also sweeps.
const SWEEP_EVERY: u64 = 4;
/// Processor counts of a named-benchmark sweep.
const SWEEP_PROCS: [u32; 3] = [4, 8, 16];
/// Frame header bytes (`XSRV` magic + length) on every message.
const FRAME_HEADER: u64 = 8;

/// The daemon, shut down and joined however the run ends.
struct Daemon(Option<Server>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown_and_join();
        }
    }
}

impl Daemon {
    fn addr(&self) -> String {
        self.0
            .as_ref()
            .expect("daemon running")
            .local_addr()
            .to_string()
    }
}

struct Payload {
    name: &'static str,
    bytes: Vec<u8>,
    records: usize,
    generate_s: f64,
}

/// The two machines each session simulates under, as config text.
fn machines() -> [String; 2] {
    [
        machine::default_distributed().to_config_text(),
        machine::cm5().to_config_text(),
    ]
}

/// The daemon's reading of a parameter text.
fn served_params(text: &str) -> Result<SimParams, String> {
    let mut p = if text.is_empty() {
        machine::default_distributed()
    } else {
        SimParams::from_config_text(text)?
    };
    p.record_mode = RecordMode::MetricsOnly;
    Ok(p)
}

fn sweep_spec(bench: &str, scale: Scale) -> SweepSpec {
    SweepSpec {
        benches: vec![bench.to_string()],
        procs: SWEEP_PROCS.to_vec(),
        scale: crate::scale_name(scale).to_string(),
        params: String::new(),
    }
}

fn setup(scale: Scale, workers: usize, tracer: &Tracer) -> Result<(Vec<Payload>, Daemon), String> {
    let payloads = parallel_map(&Bench::all(), workers, |i, bench| {
        let ctx = Ctx::root("setup", i as u64, 0);
        let g0 = Instant::now();
        let trace = tracer.span("pcpp.generate", ctx, |_| bench.trace(THREADS, scale));
        let generate_s = g0.elapsed().as_secs_f64();
        let bytes = tracer.span("trace.encode", ctx, |_| encode_program(&trace));
        Payload {
            name: bench.name(),
            bytes,
            records: trace.records.len(),
            generate_s,
        }
    });
    let config = ServeConfig {
        workers,
        sweep_workers: workers,
        ..ServeConfig::default().with_addr("127.0.0.1:0")
    };
    let daemon = Daemon(Some(Server::start(config).map_err(|e| e.to_string())?));
    // Warm the daemon's sweep cache with every named sweep a session
    // can ask for, so the loop never generates.
    let mut client = Client::connect(&daemon.addr()).map_err(|e| e.to_string())?;
    tracer.span("serve.sweep", Ctx::root("setup", 0, 0), |_| {
        client
            .sweep(SweepSpec {
                benches: Bench::all().iter().map(|b| b.name().to_string()).collect(),
                ..sweep_spec("", scale)
            })
            .map_err(|e| e.to_string())
    })?;
    Ok((payloads, daemon))
}

/// In-process answers for every input a session can send.
struct Expected {
    /// The session's two machines, as the config text it sends.
    machines: [String; 2],
    simulate: Vec<[PredictionSummary; 2]>,
    analyze: Vec<String>,
    sweep: Vec<Vec<SweepRow>>,
    /// Translated sets, for the reference machine.
    sets: Vec<extrap_trace::TraceSet>,
    /// Events simulated for the payloads and for the sweep points.
    events: (u64, u64),
}

/// Computes the in-process answers through the public functions the
/// daemon calls: decode, translate and compile at admission (plus the
/// fused compile from bytes), simulate, analyze, and the named sweep.
/// Traced, each call is a span (phase `replay`; each sweep point's
/// simulation, timed alone, `replay_sweep`) — the per-layer times of
/// the calls the benchmark cannot wrap inside the daemon.
fn expected(
    payloads: &[Payload],
    scale: Scale,
    workers: usize,
    tracer: &Tracer,
) -> Result<Expected, String> {
    let texts = machines();
    let mut out = Expected {
        machines: texts.clone(),
        simulate: Vec::new(),
        analyze: Vec::new(),
        sweep: Vec::new(),
        sets: Vec::new(),
        events: (0, 0),
    };
    let sweep_cache = SharedTraceCache::new();
    let sweep_params = served_params("")?;
    for (i, p) in payloads.iter().enumerate() {
        let ctx = Ctx::root("replay", i as u64, 0);
        let trace = tracer
            .span("trace.decode", ctx, |_| decode_program(&p.bytes))
            .map_err(|e| e.to_string())?;
        let set = tracer
            .span("trace.translate", ctx, |_| {
                translate(&trace, Default::default())
            })
            .map_err(|e| e.to_string())?;
        let program = tracer
            .span("core.compile", ctx, |_| CompiledProgram::compile(&set))
            .map_err(|e| e.to_string())?;
        tracer
            .span("core.stream_compile", ctx, |_| {
                ProgramStream::new(SliceSource(&p.bytes))
                    .and_then(|mut s| compile_program_stream(&mut s, Default::default()))
            })
            .map_err(|e| e.to_string())?;
        let mut run = |text: &str| -> Result<PredictionSummary, String> {
            let params = served_params(text)?;
            let pred = tracer
                .span("core.simulate", ctx, |_| {
                    Extrapolator::new(params).run(&program)
                })
                .map_err(|e| e.to_string())?;
            out.events.0 += pred.events_dispatched;
            Ok(PredictionSummary::from(&pred))
        };
        let sims = [run(&texts[0])?, run(&texts[1])?];
        out.simulate.push(sims);
        let params = served_params(&texts[0])?;
        let analysis = tracer
            .span("analyze.analyze", ctx, |_| analyze(&program, &params))
            .map_err(|e| e.to_string())?;
        out.analyze
            .push(render(p.name, &analysis, &[], Format::Text));
        out.sets.push(set);

        let jobs: Vec<SweepJob<(&'static str, usize)>> = SWEEP_PROCS
            .iter()
            .map(|&n| SweepJob {
                key: (p.name, n as usize),
                params: sweep_params.clone(),
            })
            .collect();
        let bench = Bench::all()
            .into_iter()
            .find(|b| b.name() == p.name)
            .expect("suite benchmark");
        let mut rows = Vec::with_capacity(jobs.len());
        for (r, job) in sweep(&jobs, workers, &sweep_cache, |&(_, n)| {
            translate(&bench.trace(n, scale), Default::default())
        })
        .into_iter()
        .zip(&jobs)
        {
            let exec_time_ns = r.map_err(|e| e.to_string())?.exec_time().as_ns();
            let cached = sweep_cache
                .get_or_translate(job.key, || unreachable!("the sweep cached {:?}", job.key))
                .map_err(|e| e.to_string())?;
            let alone = tracer
                .span(
                    "core.simulate",
                    Ctx::root("replay_sweep", i as u64, 0),
                    |_| Extrapolator::new(sweep_params.clone()).run(cached.program()),
                )
                .map_err(|e| e.to_string())?;
            if alone.exec_time().as_ns() != exec_time_ns {
                return Err(format!(
                    "{:?} simulated alone differs from the sweep",
                    job.key
                ));
            }
            out.events.1 += alone.events_dispatched;
            rows.push(SweepRow {
                bench: p.name.to_string(),
                procs: job.key.1 as u32,
                exec_time_ns,
            });
        }
        out.sweep.push(rows);
    }
    Ok(out)
}

/// One client connection with its protocol counters.  Frame bytes are
/// counted (by re-encoding each message) only while `count_bytes` is
/// set, so the untraced loop does not pay for it.
struct Conn {
    client: Client,
    count_bytes: bool,
    bytes: u64,
    calls: u64,
    busy_retries: u64,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        Ok(Conn {
            client: Client::connect(addr).map_err(|e| e.to_string())?,
            count_bytes: false,
            bytes: 0,
            calls: 0,
            busy_retries: 0,
        })
    }

    /// One exchange, retrying `Busy` answers after a short pause.
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        loop {
            let rsp = self.client.request(req).map_err(|e| e.to_string())?;
            self.calls += 1;
            if self.count_bytes {
                self.bytes += 2 * FRAME_HEADER
                    + encode_request(req).len() as u64
                    + encode_response(&rsp).len() as u64;
            }
            match rsp {
                Response::Error {
                    code: extrap_proto::ErrorCode::Busy,
                    ..
                } => {
                    self.busy_retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Response::Error { code, detail } => return Err(format!("{code}: {detail}")),
                other => return Ok(other),
            }
        }
    }

    /// A job request: accepted, then long-polled until it leaves
    /// `Pending`.
    fn job(&mut self, req: &Request) -> Result<Response, String> {
        let job = match self.call(req)? {
            Response::Accepted { job } => job,
            other => return Err(format!("expected Accepted, got {other:?}")),
        };
        loop {
            match self.call(&Request::FetchResult {
                job,
                wait_ms: 1_000,
            })? {
                Response::Pending { .. } => continue,
                other => return Ok(other),
            }
        }
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("expected Stats, got {other:?}")),
        }
    }
}

/// One session: submit, simulate twice, analyze, evict, maybe sweep.
#[allow(clippy::too_many_arguments)]
fn session(
    conn: &mut Conn,
    payload: usize,
    sweeps: bool,
    payloads: &[Payload],
    want: &Expected,
    scale: Scale,
    tracer: &Tracer,
    ctx: Ctx,
    tally: &mut Tally,
) {
    let p = &payloads[payload];
    let report = |what: &str, e: &str| eprintln!("perfbench: served_mix {what} {}: {e}", p.name);

    let t0 = Instant::now();
    let submitted = tracer.span("serve.submit", ctx, |_| {
        conn.call(&Request::SubmitTrace {
            name: p.name.to_string(),
            payload: p.bytes.clone(),
        })
    });
    let trace = match submitted {
        Ok(Response::Submitted { trace, .. }) => trace,
        other => {
            report("submit", &format!("{other:?}"));
            tally.request("submit", t0, false);
            return;
        }
    };
    tally.request("submit", t0, true);

    for (m, text) in want.machines.iter().enumerate() {
        let t0 = Instant::now();
        let got = tracer.span("serve.simulate", ctx, |_| {
            conn.job(&Request::Simulate {
                trace,
                params: text.clone(),
            })
        });
        let ok = matches!(&got, Ok(Response::Prediction(s)) if *s == want.simulate[payload][m]);
        if !ok {
            report(
                "simulate",
                &format!("{got:?} differs from the in-process prediction"),
            );
        }
        tally.request("simulate", t0, ok);
        tally.predictions += 1;
    }

    let t0 = Instant::now();
    let got = tracer.span("serve.analyze", ctx, |_| {
        conn.call(&Request::Analyze {
            trace,
            params: want.machines[0].clone(),
            format: "text".into(),
        })
    });
    let ok =
        matches!(&got, Ok(Response::Analyzed { rendered }) if *rendered == want.analyze[payload]);
    if !ok {
        report("analyze", "served report differs from the in-process one");
    }
    tally.request("analyze", t0, ok);

    let t0 = Instant::now();
    let got = tracer.span("serve.evict", ctx, |_| conn.call(&Request::Evict { trace }));
    let ok = matches!(got, Ok(Response::Evicted { .. }));
    if !ok {
        report("evict", &format!("{got:?}"));
    }
    tally.request("evict", t0, ok);

    if sweeps {
        let t0 = Instant::now();
        let got = tracer.span("serve.sweep", ctx, |_| {
            conn.job(&Request::Sweep(sweep_spec(p.name, scale)))
        });
        let ok = matches!(&got, Ok(Response::SweepRows(rows)) if *rows == want.sweep[payload]);
        if !ok {
            report(
                "sweep",
                &format!("{got:?} differs from the in-process sweep"),
            );
        }
        tally.request("sweep", t0, ok);
        tally.predictions += SWEEP_PROCS.len() as u64;
    }
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let scale = cfg.scale.unwrap_or(Scale::Small);
    let workers = cfg.nproc;
    let clients = cfg.nproc as u32;
    let (built, first_setup) = timed(|| setup(scale, workers, tracer));
    let (payloads, daemon) = built?;
    // Check preparation, outside the timed set-up.
    let want = expected(&payloads, scale, workers, tracer)?;

    let conns: Vec<Mutex<Conn>> = (0..clients)
        .map(|_| Conn::open(&daemon.addr()).map(Mutex::new))
        .collect::<Result<_, _>>()?;
    let mut admin = Conn::open(&daemon.addr())?;
    let loop_fn = |tracer: &Tracer, lane: u32, group: u64, index: u64, tally: &mut Tally| {
        // Each connection walks the payloads in seeded rounds.
        let n = payloads.len() as u64;
        let mut order: Vec<usize> = (0..payloads.len()).collect();
        SplitMix64::new(cfg.seed ^ (u64::from(lane) << 48) ^ ((index / n) << 32))
            .shuffle(&mut order);
        let payload = order[(index % n) as usize];
        let sweeps = index % SWEEP_EVERY == SWEEP_EVERY - 1;
        let mut conn = conns[lane as usize].lock().expect("connection poisoned");
        let ctx = Ctx::root("measure", group, lane);
        session(
            &mut conn, payload, sweeps, &payloads, &want, scale, tracer, ctx, tally,
        );
    };
    let measured = closed_loop(clients, cfg.loop_seconds(), &Tracer::new(false), loop_fn);
    let mut traced_phase = None;
    if cfg.trace {
        let before = admin.stats()?;
        let counters = |conns: &[Mutex<Conn>]| {
            conns.iter().fold((0u64, 0u64, 0u64), |acc, c| {
                let c = c.lock().expect("connection poisoned");
                (acc.0 + c.bytes, acc.1 + c.calls, acc.2 + c.busy_retries)
            })
        };
        for c in &conns {
            c.lock().expect("connection poisoned").count_bytes = true;
        }
        let c0 = counters(&conns);
        let t = closed_loop(clients, cfg.loop_seconds(), tracer, loop_fn);
        let c1 = counters(&conns);
        let after = admin.stats()?;
        traced_phase = Some((t, before, after, (c1.0 - c0.0, c1.1 - c0.1, c1.2 - c0.2)));
    }
    drop(conns);
    drop(admin);
    drop(daemon);
    let quiet = Tracer::new(false);
    let setup_s = setup_samples(first_setup, SETUP_REPS, || setup(scale, workers, &quiet))?;

    // Accuracy against the reference machine on the submitted programs,
    // on the CM-5 parameters it models (one group: P = 16).
    let cm5 = served_params(&machines()[1])?;
    let refs = parallel_map(&want.sets, workers, |i, set| {
        tracer.span("refsim.measure", Ctx::root("check", i as u64, 0), |_| {
            RefMachine::new(cm5.clone()).measure(set)
        })
    });
    let mut group = Vec::new();
    for (i, r) in refs.into_iter().enumerate() {
        let reference = r.map_err(|e| e.to_string())?.exec_time().as_ms();
        group.push((want.simulate[i][1].exec_time_ns as f64 / 1e6, reference));
    }
    let acc = accuracy(&[group]);

    let (traced, layers, extra_layers) = match traced_phase {
        Some((t, before, after, counters)) => {
            let submits = measured.tally.latencies(Some("submit")).len()
                + t.tally.latencies(Some("submit")).len();
            let (layers, extra) = layer_metrics(
                &payloads,
                want.events,
                tracer,
                &t,
                before,
                after,
                counters,
                submits,
                workers,
            );
            (Some(t), layers, extra)
        }
        None => (None, Vec::new(), Vec::new()),
    };

    Ok(Outcome {
        setup_s,
        measured,
        traced,
        accuracy: acc,
        check_failed: 0,
        layers,
        extra_layers,
        host: vec![
            ("scale", crate::scale_name(scale).to_string()),
            ("sweep_workers", workers.to_string()),
            ("daemon_workers", workers.to_string()),
            ("client_connections", clients.to_string()),
        ],
    })
}

/// Per-layer metrics from the replayed calls, scaled to one session (a session
/// sends one payload, and one in [`SWEEP_EVERY`] sweeps one benchmark),
/// and from the daemon's counters over the traced loop.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    payloads: &[Payload],
    (events, sweep_events): (u64, u64),
    tracer: &Tracer,
    traced: &Measured,
    before: ServerStats,
    after: ServerStats,
    (bytes, calls, busy_retries): (u64, u64, u64),
    submits: usize,
    workers: usize,
) -> (Vec<Metric>, Vec<Metric>) {
    let n = payloads.len() as f64;
    let per_sweep_session = n * SWEEP_EVERY as f64;
    let replay = tracer.self_times("replay");
    let sweeps = tracer.self_times("replay_sweep");
    let per_session = |name: &str| {
        replay.get(name).map_or(0.0, |v| v.0) / n
            + sweeps.get(name).map_or(0.0, |v| v.0) / per_sweep_session
    };
    let calls_per_session = |name: &str| {
        replay.get(name).map_or(0, |v| v.1) as f64 / n
            + sweeps.get(name).map_or(0, |v| v.1) as f64 / per_sweep_session
    };
    let setup = tracer.self_times("setup");
    let generate = setup.get("pcpp.generate").map_or(0.0, |v| v.0);
    let records: usize = payloads.iter().map(|p| p.records).sum();
    let simulate = per_session("core.simulate");
    let session_events = events as f64 / n + sweep_events as f64 / per_sweep_session;
    let sessions_per_s = traced.sessions_per_s();
    let sweep_ms = median(&traced.tally.latencies(Some("sweep")));
    let sweep_sim = sweeps.get("core.simulate").map_or(0.0, |v| v.0) / n;
    let sweeps_asked = traced.tally.latencies(Some("sweep")).len() as f64;
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let batches = d(after.sweep_batches, before.sweep_batches);
    let coalesced = d(after.coalesced_sweeps, before.coalesced_sweeps);
    // The daemon's translation count covers admissions and sweep-cache
    // misses alike.
    let admitted = traced.tally.latencies(Some("submit")).len() as f64;
    let translations = d(after.translations, before.translations);
    let misses = translations - admitted;
    let p50 = |kind: &str| percentile(&traced.tally.latencies(Some(kind)), 0.5);

    let layers = vec![
        metric("pcpp.generate_s", generate, "s"),
        metric("pcpp.records", records as f64, "count"),
        metric(
            "pcpp.ns_per_record",
            generate * 1e9 / records.max(1) as f64,
            "ns",
        ),
        metric(
            "pcpp.job_max_s",
            payloads.iter().map(|p| p.generate_s).fold(0.0, f64::max),
            "s",
        ),
        metric("pcpp.busy_share", 0.0, "ratio"),
        metric("trace.translate_s", per_session("trace.translate"), "s"),
        metric("core.compile_s", per_session("core.compile"), "s"),
        metric("core.simulate_s", simulate, "s"),
        metric(
            "core.simulate_calls",
            calls_per_session("core.simulate"),
            "count",
        ),
        metric("core.events", session_events, "count"),
        metric(
            "core.ns_per_event",
            simulate * 1e9 / session_events.max(1.0),
            "ns",
        ),
        metric(
            "core.simulate_share",
            simulate * sessions_per_s / workers as f64,
            "ratio",
        ),
        metric("core.repr_engaged_ratio", 0.0, "ratio"),
        metric("core.repr_event_ratio", 0.0, "ratio"),
        metric(
            "core.cache_translations",
            d(after.translations, submits as u64),
            "count",
        ),
        metric(
            "core.cache_hit_ratio",
            1.0 - misses / (sweeps_asked * SWEEP_PROCS.len() as f64).max(1.0),
            "ratio",
        ),
        metric(
            "core.cache_resident_mb",
            after.resident_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
        metric(
            "core.sweep_parallel_eff",
            if sweep_ms > 0.0 {
                sweep_sim / (workers as f64 * sweep_ms / 1e3)
            } else {
                0.0
            },
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
        metric(
            "serve.busy_retry_ratio",
            busy_retries as f64 / calls.max(1) as f64,
            "ratio",
        ),
        metric(
            "serve.coalesce_ratio",
            coalesced / (batches + coalesced).max(1.0),
            "ratio",
        ),
        metric("serve.translations", translations, "count"),
        metric(
            "serve.evictions",
            d(after.evictions, before.evictions),
            "count",
        ),
        metric(
            "proto.bytes_per_session",
            bytes as f64 / traced.sessions.len().max(1) as f64,
            "bytes",
        ),
    ];
    let extra = vec![
        metric("serve.submit_p50_ms", p50("submit"), "ms"),
        metric("serve.simulate_p50_ms", p50("simulate"), "ms"),
        metric("serve.analyze_p50_ms", p50("analyze"), "ms"),
        metric("serve.evict_p50_ms", p50("evict"), "ms"),
        metric("serve.sweep_p50_ms", p50("sweep"), "ms"),
        metric("trace.decode_s", per_session("trace.decode"), "s"),
        metric(
            "core.stream_compile_s",
            per_session("core.stream_compile"),
            "s",
        ),
        metric("analyze.analyze_s", per_session("analyze.analyze"), "s"),
        metric(
            "trace.encode_s",
            setup.get("trace.encode").map_or(0.0, |v| v.0),
            "s",
        ),
    ];
    (layers, extra)
}
