//! `perfbench` — the repository's end-to-end benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_figs|whatif_warm|served_mix --seed N --seconds S \
//!     --trace 0|1 [--scale tiny|small|paper] [--digests FILE]
//! ```
//!
//! Each workload is a closed loop: a client sends its next request only
//! when the previous answer arrived.  A run sets the workload up, drives
//! the loop for `--seconds`, checks every output, then sets up again
//! until it has [`SETUP_REPS`] set-up times (their median is `setup_s`).
//! It prints a table followed by one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced
//! run spends half its time untraced and half traced, so it can report
//! the tracing overhead, and times the calls the benchmark cannot wrap
//! (inside a figure, a sweep or the daemon) by running one answer's
//! inputs through the same public functions.  Spans and the full result
//! record are written under `perfbench/out/`.

mod cold;
mod served;
mod span;
mod stats;
mod whatif;

use extrap_workloads::Scale;
use span::Tracer;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Option<Scale>,
    pub digests: PathBuf,
    /// Available parallelism: the cap on sweep workers, daemon workers
    /// and client connections.
    pub nproc: usize,
}

impl Config {
    /// The measured seconds of one loop: all of them, or half each for
    /// the untraced and traced halves of a traced run.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Reference digest `name` for this workload at `scale`, from the
    /// digests file (`workload scale name hex` per line).
    pub fn reference_digest(&self, scale: Scale, name: &str) -> Option<String> {
        let text = std::fs::read_to_string(&self.digests).ok()?;
        let scale = scale_name(scale);
        text.lines().find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == self.workload && f[1] == scale && f[2] == name)
                .then(|| f[3].to_string())
        })
    }
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// What one client loop observed.
#[derive(Default)]
pub struct Tally {
    /// `(request kind, latency ms)` per request.
    pub requests: Vec<(&'static str, f64)>,
    pub predictions: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.requests.extend(other.requests);
        self.predictions += other.predictions;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Latencies (ms) of one request kind, or of all with `None`.
    pub fn latencies(&self, kind: Option<&str>) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, ms)| ms)
            .collect()
    }

    /// Records one checked request.
    pub fn request(&mut self, kind: &'static str, since: Instant, ok: bool) {
        self.requests
            .push((kind, since.elapsed().as_secs_f64() * 1e3));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One closed-loop phase.
pub struct Measured {
    /// Wall time of each completed session (seconds).
    pub sessions: Vec<f64>,
    pub tally: Tally,
    pub wall_s: f64,
    pub clients: u32,
    pub from_ns: u64,
    pub to_ns: u64,
    /// Median over sessions of the largest resident set sampled while
    /// the session ran (MiB).
    pub peak_rss_mb: f64,
}

impl Measured {
    pub fn answer_s(&self) -> f64 {
        median(&self.sessions)
    }

    pub fn predictions_per_s(&self) -> f64 {
        self.tally.predictions as f64 / self.wall_s
    }

    pub fn sessions_per_s(&self) -> f64 {
        self.sessions.len() as f64 / self.wall_s
    }
}

/// Runs `clients` closed-loop clients for `seconds`: each starts a new
/// session only while time remains, and a started session finishes.
/// `session(tracer, lane, group, index_in_lane, tally)` runs one
/// session.
pub fn closed_loop<F>(clients: u32, seconds: f64, tracer: &Tracer, session: F) -> Measured
where
    F: Fn(&Tracer, u32, u64, u64, &mut Tally) + Sync,
{
    let next_group = AtomicU64::new(0);
    let sessions = Mutex::new(Vec::new());
    let merged = Mutex::new(Tally::default());
    let from_ns = tracer.now_ns();
    let start = Instant::now();
    let running = AtomicU64::new(u64::from(clients));
    let spans = Mutex::new(Vec::new());
    let rss_samples = std::thread::scope(|s| {
        let (running, spans) = (&running, &spans);
        let sampler = s.spawn(move || {
            let mut samples = vec![(0.0, stats::rss_mb())];
            while running.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                samples.push((start.elapsed().as_secs_f64(), stats::rss_mb()));
            }
            samples
        });
        for lane in 0..clients {
            let (session, next_group, sessions, merged) =
                (&session, &next_group, &sessions, &merged);
            s.spawn(move || {
                let mut tally = Tally::default();
                let mut mine = Vec::new();
                let mut index = 0u64;
                while start.elapsed().as_secs_f64() < seconds {
                    let group = next_group.fetch_add(1, Ordering::Relaxed);
                    let t0 = start.elapsed().as_secs_f64();
                    session(tracer, lane, group, index, &mut tally);
                    mine.push((t0, start.elapsed().as_secs_f64()));
                    index += 1;
                }
                sessions
                    .lock()
                    .expect("session list poisoned")
                    .extend(mine.iter().map(|(a, b)| b - a));
                spans.lock().expect("session list poisoned").extend(mine);
                merged.lock().expect("tally poisoned").merge(tally);
                running.fetch_sub(1, Ordering::Relaxed);
            });
        }
        sampler.join().expect("memory sampler panicked")
    });
    // A session's peak is the largest sample taken while it ran; one
    // too short to be sampled is skipped.
    let peaks: Vec<f64> = spans
        .into_inner()
        .expect("session list poisoned")
        .iter()
        .filter_map(|&(a, b)| {
            rss_samples
                .iter()
                .filter(|&&(t, _)| t >= a && t <= b)
                .map(|&(_, mb)| mb)
                .reduce(f64::max)
        })
        .collect();
    let peak_rss_mb = if peaks.is_empty() {
        rss_samples.iter().map(|&(_, mb)| mb).fold(0.0, f64::max)
    } else {
        median(&peaks)
    };
    Measured {
        sessions: sessions.into_inner().expect("session list poisoned"),
        tally: merged.into_inner().expect("tally poisoned"),
        wall_s: start.elapsed().as_secs_f64(),
        clients,
        from_ns,
        to_ns: tracer.now_ns(),
        peak_rss_mb,
    }
}

/// Times one set-up.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let product = setup();
    (product, t0.elapsed().as_secs_f64())
}

/// Completes the set-up samples: `first` is the set-up whose product the
/// run used; `again` sets up `reps - 1` more times, each product dropped
/// outside the timed region.  They run after the loop so the loop's
/// memory holds one set-up only.
pub fn setup_samples<T, E>(
    first: f64,
    reps: usize,
    mut again: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, E> {
    let mut times = vec![first];
    for _ in 1..reps {
        let (product, secs) = timed(&mut again);
        product?;
        times.push(secs);
    }
    Ok(times)
}

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything a workload hands back.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The untraced loop (all of `--seconds`, or its first half).
    pub measured: Measured,
    /// The traced second half of a traced run.
    pub traced: Option<Measured>,
    /// Mean relative error and mean Kendall tau against `extrap-refsim`.
    pub accuracy: (f64, f64),
    /// Failures found by checks outside the loop (replay, accuracy).
    pub check_failed: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Layer metrics this workload alone exercises: printed in the
    /// table, not in the JSON line (see `PER_LAYER`).
    pub extra_layers: Vec<Metric>,
    /// Worker and connection counts, scale.
    pub host: Vec<(&'static str, String)>,
}

/// The per-layer metrics every workload prints in the JSON line, in
/// `BENCHMARK.json` order.  A count or ratio of a layer the workload
/// does not use reads 0; layer *times* only some workloads have
/// (`exp.render_s`, `analyze.analyze_s`, `trace.decode_s`,
/// `core.stream_compile_s`, `serve.*_p50_ms`) are printed in the table
/// of those workloads instead.
const PER_LAYER: [&str; 28] = [
    "pcpp.generate_s",
    "pcpp.records",
    "pcpp.ns_per_record",
    "pcpp.job_max_s",
    "pcpp.busy_share",
    "trace.translate_s",
    "core.compile_s",
    "core.simulate_s",
    "core.simulate_calls",
    "core.events",
    "core.ns_per_event",
    "core.simulate_share",
    "core.repr_engaged_ratio",
    "core.repr_event_ratio",
    "core.cache_translations",
    "core.cache_hit_ratio",
    "core.cache_resident_mb",
    "core.sweep_parallel_eff",
    "refsim.measure_s",
    "serve.busy_retry_ratio",
    "serve.coalesce_ratio",
    "serve.translations",
    "serve.evictions",
    "proto.bytes_per_session",
    "trace.overhead_answer_s",
    "trace.overhead_predictions_per_s",
    "trace.overhead_sessions_per_s",
    "trace.uncovered_share",
];

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = None;
    let mut digests = PathBuf::from("perfbench/digests.txt");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = Some(match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    _ => return Err(format!("unknown scale {value:?} (tiny|small|paper)")),
                })
            }
            "--digests" => digests = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        digests,
        nproc: extrap_core::sweep::default_workers(),
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(cfg.trace);
    let outcome = match cfg.workload.as_str() {
        "cold_figs" => cold::run(&cfg, &tracer),
        "whatif_warm" => whatif::run(&cfg, &tracer),
        "served_mix" => served::run(&cfg, &tracer),
        other => Err(format!(
            "unknown workload {other:?} (cold_figs|whatif_warm|served_mix)"
        )),
    };
    match outcome {
        Ok(outcome) => report(&cfg, &tracer, outcome),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    }
}

fn report(cfg: &Config, tracer: &Tracer, o: Outcome) {
    let m = &o.measured;
    let all_ms = m.tally.latencies(None);
    let attempted = m.tally.attempted + o.traced.as_ref().map_or(0, |t| t.tally.attempted);
    let failed = m.tally.failed + o.traced.as_ref().map_or(0, |t| t.tally.failed) + o.check_failed;
    let failed_frac = failed as f64 / attempted.max(1) as f64;

    // In `BENCHMARK.json` order.
    let end_to_end = [
        metric("setup_s", median(&o.setup_s), "s"),
        metric("answer_s", m.answer_s(), "s"),
        metric("predictions_per_s", m.predictions_per_s(), "1/s"),
        metric("sessions_per_s", m.sessions_per_s(), "1/s"),
        metric("request_p50_ms", percentile(&all_ms, 0.5), "ms"),
        metric("request_p90_ms", percentile(&all_ms, 0.9), "ms"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
        metric("refsim_rel_err", o.accuracy.0, "ratio"),
        metric("refsim_rank_tau", o.accuracy.1, "tau"),
    ];

    let mut layers: BTreeMap<String, Metric> = BTreeMap::new();
    if let Some(t) = &o.traced {
        let overhead = [
            ("trace.overhead_answer_s", t.answer_s() - m.answer_s(), "s"),
            (
                "trace.overhead_predictions_per_s",
                t.predictions_per_s() - m.predictions_per_s(),
                "1/s",
            ),
            (
                "trace.overhead_sessions_per_s",
                t.sessions_per_s() - m.sessions_per_s(),
                "1/s",
            ),
            (
                "trace.uncovered_share",
                tracer.uncovered_share("measure", t.clients, t.from_ns, t.to_ns),
                "ratio",
            ),
        ];
        for (name, value, unit) in overhead {
            layers.insert(name.to_string(), metric(name, value, unit));
        }
    }
    for l in o.layers {
        layers.insert(l.name.clone(), l);
    }

    let mut host: Vec<(&str, String)> = vec![
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("nproc", cfg.nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
        ("loop", format!("closed, {} client(s)", m.clients)),
        ("sessions", m.sessions.len().to_string()),
        ("session_s", session_summary(&m.sessions)),
        ("request_samples", all_ms.len().to_string()),
        ("beyond_p90", stats::beyond(&all_ms, 0.9).to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
    ];
    host.extend(o.host.iter().map(|(k, v)| (*k, v.clone())));

    let mut table = String::new();
    for (k, v) in &host {
        let _ = writeln!(table, "# {k:<22} {v}");
    }
    let _ = writeln!(table, "{:<34} {:>18}  unit", "metric", "value");
    let _ = writeln!(table, "{:<34} {:>18}  ratio", "failed_frac", failed_frac);
    for x in end_to_end
        .iter()
        .chain(layers.values())
        .chain(&o.extra_layers)
    {
        let _ = writeln!(table, "{:<34} {:>18.6}  {}", x.name, x.value, x.unit);
    }
    print!("{table}");

    let shown: Vec<&Metric> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|name| {
                layers
                    .get(*name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"))
            })
            .collect()
    } else {
        end_to_end.iter().collect()
    };
    let metrics_json: Vec<String> = shown
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics_json.join(", ")
    );

    let out_dir = PathBuf::from("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}.txt")),
                format!("{table}{line}\n"),
            )
        })
        .and_then(|()| {
            if cfg.trace {
                tracer.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
    }
    println!("{line}");
}

/// Every session time when there are few, else their range and median.
fn session_summary(sessions: &[f64]) -> String {
    if sessions.len() <= 32 {
        return sessions
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ");
    }
    let (lo, hi) = sessions
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    format!("min {lo:.4} median {:.4} max {hi:.4}", median(sessions))
}

/// A JSON number with all its digits.  Every metric is finite by
/// construction; a non-finite one is a defect of this benchmark.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}
