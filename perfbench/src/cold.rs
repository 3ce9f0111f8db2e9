//! `cold_figs`: the paper's Fig-4 and Fig-9 grids from an empty cache to
//! rendered CSVs, the path an `extrap-exp fig4 fig9` user pays.  One
//! client; each session builds a fresh [`Harness`] and answers both
//! figures in a seeded order, each figure call followed by its CSV
//! rendering.  Nearly all of the time is `pcpp` trace generation.

use crate::span::{Ctx, Tracer};
use crate::stats::{accuracy, Digest, SplitMix64};
use crate::{closed_loop, metric, setup_samples, timed, Config, Measured, Metric, Outcome, Tally};
use extrap_core::{
    machine, parallel_map, CachedTrace, CompiledProgram, Extrapolator, RecordMode, SimParams,
};
use extrap_exp::{fig4, fig9, render_csv, Harness, Series, PROCS};
use extrap_refsim::RefMachine;
use extrap_trace::{translate, ProgramTrace};
use extrap_workloads::{matmul, Bench, Scale};
use pcpp_rt::Dist1;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The CSV files of one session, by stem.
const CSVS: [&str; 4] = [
    "fig4_speedup",
    "fig4_time",
    "fig9_predicted",
    "fig9_measured",
];

/// Set-up samples: the set-up is short, so more are taken than elsewhere.
const SETUP_REPS: usize = 11;

/// A figure's series and their CSV text, by CSV stem.
type Rendered = Vec<(&'static str, Vec<Series>, String)>;

/// Reference digests by CSV stem.
type References = BTreeMap<&'static str, Option<String>>;

/// Predictions one session returns: 42 Fig-4 points, 54 predicted and
/// 54 reference-measured Fig-9 points.  Every one is one cache lookup.
const PREDICTIONS_PER_SESSION: u64 = 42 + 54 + 54;

/// Matmul order per scale, as the figure harness sizes Fig 9.
fn matmul_order(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 12,
        Scale::Small => 32,
        Scale::Paper => 48,
    }
}

/// The series of the latest session, by CSV stem, plus its harness's
/// translation count.
#[derive(Default)]
struct Latest {
    series: BTreeMap<&'static str, Vec<Series>>,
    translations: usize,
}

/// Answers both figures (each figure call, then its CSV rendering) as
/// one request, checks the CSVs against the reference digests and
/// keeps the series.
fn answer(
    refs: &References,
    h: &Harness,
    fig9_first: bool,
    tracer: &Tracer,
    ctx: Ctx,
    tally: &mut Tally,
    latest: &Mutex<Latest>,
) {
    let figures: [bool; 2] = if fig9_first {
        [true, false]
    } else {
        [false, true]
    };
    let t0 = Instant::now();
    let mut all_ok = true;
    for is_fig9 in figures {
        let rendered: Result<Rendered, String> = if is_fig9 {
            tracer
                .span("exp.fig9", ctx, |_| fig9(h))
                .map_err(|e| e.to_string())
                .map(|(pred, meas)| {
                    tracer.span("exp.render", ctx, |_| {
                        let (p, m) = (render_csv(&pred), render_csv(&meas));
                        vec![("fig9_predicted", pred, p), ("fig9_measured", meas, m)]
                    })
                })
        } else {
            tracer
                .span("exp.fig4", ctx, |_| fig4(h))
                .map_err(|e| e.to_string())
                .map(|(speedups, times)| {
                    tracer.span("exp.render", ctx, |_| {
                        let (s, t) = (render_csv(&speedups), render_csv(&times));
                        vec![("fig4_speedup", speedups, s), ("fig4_time", times, t)]
                    })
                })
        };
        let ok = match rendered {
            Ok(csvs) => {
                let ok = csvs
                    .iter()
                    .fold(true, |ok, (name, _, csv)| check_csv(refs, name, csv) && ok);
                let mut l = latest.lock().expect("latest poisoned");
                for (name, series, _) in csvs {
                    l.series.insert(name, series);
                }
                ok
            }
            Err(e) => {
                eprintln!("perfbench: cold_figs: {e}");
                false
            }
        };
        all_ok &= ok;
    }
    tally.request("figures", t0, all_ok);
    tally.predictions += PREDICTIONS_PER_SESSION;
    latest.lock().expect("latest poisoned").translations = h.cache().translations();
}

/// Whether `csv` matches its reference digest; a mismatch is reported
/// on stderr with the digest actually seen.
fn check_csv(refs: &References, name: &str, csv: &str) -> bool {
    let got = Digest::new().bytes(csv.as_bytes()).hex();
    let want = refs.get(name).cloned().flatten();
    if want.as_deref() == Some(got.as_str()) {
        return true;
    }
    eprintln!(
        "perfbench: cold_figs {name}: digest {got}, reference {}",
        want.as_deref().unwrap_or("missing")
    );
    false
}

/// Fig-9 accuracy: mean relative error over the 54 points, and the mean
/// over processor counts of Kendall tau between the predicted and the
/// reference orderings of the nine distributions.
fn fig9_accuracy(pred: &[Series], meas: &[Series]) -> (f64, f64) {
    let groups: Vec<Vec<(f64, f64)>> = (0..PROCS.len())
        .map(|pi| {
            pred.iter()
                .zip(meas)
                .map(|(p, m)| (p.points[pi].1, m.points[pi].1))
                .collect()
        })
        .collect();
    accuracy(&groups)
}

/// Where a grid point's trace comes from: a suite benchmark (Fig 4, on
/// the distributed machine) or a Matmul distribution (Fig 9, on the
/// CM-5, also measured on the reference machine).
#[derive(Clone, Copy)]
enum Source {
    Suite(Bench),
    Matmul((Dist1, Dist1)),
}

/// One grid point of a session, replayed call by call along the
/// figure's cache-miss path.
struct Point {
    source: Source,
    n: usize,
}

impl Point {
    /// The figure's series label.
    fn label(&self) -> String {
        match self.source {
            Source::Suite(bench) => bench.name().to_string(),
            Source::Matmul(dist) => format!("({},{})", dist.0.letter(), dist.1.letter()),
        }
    }

    fn params(&self) -> SimParams {
        let mut p = match self.source {
            Source::Suite(_) => machine::default_distributed(),
            Source::Matmul(_) => machine::cm5(),
        };
        p.record_mode = RecordMode::MetricsOnly;
        p
    }
}

struct Replayed {
    generate_s: f64,
    busy_s: f64,
    records: usize,
    events: u64,
    resident: usize,
    /// (predicted ms, reference ms)
    times: Result<(f64, Option<f64>), String>,
}

fn sources() -> impl Iterator<Item = Source> {
    let suite = Bench::all().map(Source::Suite);
    let matmul = matmul::nine_distributions().map(Source::Matmul);
    suite.into_iter().chain(matmul)
}

fn points() -> Vec<Point> {
    sources()
        .flat_map(|source| PROCS.map(|n| Point { source, n }))
        .collect()
}

fn replay(point: &Point, scale: Scale, tracer: &Tracer, job: u64) -> Replayed {
    let ctx = Ctx::root("replay", job, 0);
    let t0 = Instant::now();
    let mut out = Replayed {
        generate_s: 0.0,
        busy_s: 0.0,
        records: 0,
        events: 0,
        resident: 0,
        times: Err(String::new()),
    };
    out.times = tracer.span("replay.job", ctx, |ctx| {
        let g0 = Instant::now();
        let program: ProgramTrace = tracer.span("pcpp.generate", ctx, |_| match point.source {
            Source::Suite(bench) => bench.trace(point.n, scale),
            Source::Matmul(dist) => {
                let config = matmul::MatmulConfig {
                    n: matmul_order(scale),
                    dist,
                };
                matmul::run(point.n, &config).0
            }
        });
        out.generate_s = g0.elapsed().as_secs_f64();
        out.records = program.records.len();
        let set = tracer
            .span("trace.translate", ctx, |_| {
                translate(&program, Default::default())
            })
            .map_err(|e| e.to_string())?;
        tracer.span("lint.validate", ctx, |_| extrap_lint::validate_set(&set))?;
        let compiled = tracer
            .span("core.compile", ctx, |_| CompiledProgram::compile(&set))
            .map_err(|e| e.to_string())?;
        let pred = tracer
            .span("core.simulate", ctx, |_| {
                Extrapolator::new(point.params()).run(&compiled)
            })
            .map_err(|e| e.to_string())?;
        out.events = pred.events_dispatched;
        let reference = match point.source {
            Source::Matmul(_) => {
                let measured = tracer
                    .span("refsim.measure", ctx, |_| {
                        RefMachine::new(point.params()).measure(&set)
                    })
                    .map_err(|e| e.to_string())?;
                Some(measured.exec_time().as_ms())
            }
            Source::Suite(_) => None,
        };
        out.resident = CachedTrace::from_parts(set, compiled).resident_bytes();
        Ok((pred.exec_time().as_ms(), reference))
    });
    out.busy_s = t0.elapsed().as_secs_f64();
    out
}

/// Whether the replayed point reproduces the figure's value(s).
fn matches_figure(latest: &Latest, point: &Point, times: (f64, Option<f64>)) -> bool {
    let label = point.label();
    let value = |stem: &str| {
        latest.series.get(stem).and_then(|all| {
            all.iter()
                .find(|s| s.label == label)
                .and_then(|s| s.at(point.n))
        })
    };
    match point.source {
        Source::Matmul(_) => {
            value("fig9_predicted") == Some(times.0) && value("fig9_measured") == times.1
        }
        Source::Suite(_) => value("fig4_time") == Some(times.0),
    }
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let scale = cfg.scale.unwrap_or(Scale::Small);
    let workers = cfg.nproc;
    // Set-up: read the reference digests, resolve the grid and warm
    // every layer once — each source at P = 1 on tiny inputs, through
    // the calls the figures make — so no timed answer pays first-use
    // costs (code faults, allocator arenas).  It fills no cache: every
    // session still starts from an empty one.
    let prepare = || -> Result<(References, Vec<Point>), String> {
        let refs: References = CSVS
            .iter()
            .map(|&stem| (stem, cfg.reference_digest(scale, stem)))
            .collect();
        let quiet = Tracer::new(false);
        for (i, source) in sources().enumerate() {
            replay(&Point { source, n: 1 }, Scale::Tiny, &quiet, i as u64).times?;
        }
        Ok((refs, points()))
    };
    let (prepared, first_setup) = timed(prepare);
    let (refs, grid) = prepared?;

    let latest = Mutex::new(Latest::default());
    let session = |tracer: &Tracer, lane: u32, group: u64, index: u64, tally: &mut Tally| {
        let mut rng = SplitMix64::new(cfg.seed ^ (index << 32));
        let fig9_first = rng.next_u64() & 1 == 1;
        let h = Harness::new(scale, workers);
        let ctx = Ctx::root("measure", group, lane);
        answer(&refs, &h, fig9_first, tracer, ctx, tally, &latest);
    };
    let measured = closed_loop(1, cfg.loop_seconds(), &Tracer::new(false), session);
    let traced = cfg
        .trace
        .then(|| closed_loop(1, cfg.loop_seconds(), tracer, session));

    let setup_s = setup_samples(first_setup, SETUP_REPS, prepare)?;
    let latest = latest.into_inner().expect("latest poisoned");
    let acc = match (
        latest.series.get("fig9_predicted"),
        latest.series.get("fig9_measured"),
    ) {
        (Some(p), Some(m)) => fig9_accuracy(p, m),
        _ => return Err("no Fig-9 answer completed".into()),
    };

    let mut check_failed = 0;
    let (layers, extra_layers) = match &traced {
        Some(t) => {
            let replayed = parallel_map(&grid, workers, |i, p| replay(p, scale, tracer, i as u64));
            for (p, r) in grid.iter().zip(&replayed) {
                let ok = match &r.times {
                    Ok(times) => matches_figure(&latest, p, *times),
                    Err(e) => {
                        eprintln!("perfbench: cold_figs replay {} P={}: {e}", p.label(), p.n);
                        false
                    }
                };
                if !ok {
                    eprintln!(
                        "perfbench: cold_figs replay of {} P={} differs from the figure",
                        p.label(),
                        p.n
                    );
                    check_failed += 1;
                }
            }
            layer_metrics(tracer, t, &replayed, latest.translations, workers)
        }
        None => (Vec::new(), Vec::new()),
    };

    Ok(Outcome {
        setup_s,
        measured,
        traced,
        accuracy: acc,
        check_failed,
        layers,
        extra_layers,
        host: vec![
            ("scale", crate::scale_name(scale).to_string()),
            ("sweep_workers", workers.to_string()),
            ("daemon_workers", "0 (no daemon)".to_string()),
            ("client_connections", "1 (in-process)".to_string()),
        ],
    })
}

fn layer_metrics(
    tracer: &Tracer,
    traced: &Measured,
    replayed: &[Replayed],
    translations: usize,
    workers: usize,
) -> (Vec<Metric>, Vec<Metric>) {
    let st = tracer.self_times("replay");
    let secs = |name: &str| st.get(name).map_or(0.0, |v| v.0);
    let calls = |name: &str| st.get(name).map_or(0, |v| v.1);
    let generate = secs("pcpp.generate");
    let simulate = secs("core.simulate");
    let records: usize = replayed.iter().map(|r| r.records).sum();
    let events: u64 = replayed.iter().map(|r| r.events).sum();
    let busy: f64 = replayed.iter().map(|r| r.busy_s).sum();
    let job_max = replayed.iter().map(|r| r.generate_s).fold(0.0, f64::max);
    let resident: usize = replayed.iter().map(|r| r.resident).sum();
    let answer = traced.answer_s();
    let measure = tracer.self_times("measure");
    let per_session =
        |name: &str| measure.get(name).map_or(0.0, |v| v.0) / traced.sessions.len().max(1) as f64;
    let layers = vec![
        metric("pcpp.generate_s", generate, "s"),
        metric("pcpp.records", records as f64, "count"),
        metric(
            "pcpp.ns_per_record",
            generate * 1e9 / records.max(1) as f64,
            "ns",
        ),
        metric("pcpp.job_max_s", job_max, "s"),
        metric("pcpp.busy_share", generate / busy, "ratio"),
        metric("trace.translate_s", secs("trace.translate"), "s"),
        metric("core.compile_s", secs("core.compile"), "s"),
        metric("core.simulate_s", simulate, "s"),
        metric(
            "core.simulate_calls",
            calls("core.simulate") as f64,
            "count",
        ),
        metric("core.events", events as f64, "count"),
        metric(
            "core.ns_per_event",
            simulate * 1e9 / events.max(1) as f64,
            "ns",
        ),
        metric(
            "core.simulate_share",
            simulate / (workers as f64 * answer),
            "ratio",
        ),
        metric("core.repr_engaged_ratio", 0.0, "ratio"),
        metric("core.repr_event_ratio", 0.0, "ratio"),
        metric("core.cache_translations", translations as f64, "count"),
        metric(
            "core.cache_hit_ratio",
            1.0 - translations as f64 / PREDICTIONS_PER_SESSION as f64,
            "ratio",
        ),
        metric(
            "core.cache_resident_mb",
            resident as f64 / (1 << 20) as f64,
            "MB",
        ),
        metric(
            "core.sweep_parallel_eff",
            busy / (workers as f64 * answer),
            "ratio",
        ),
        metric("refsim.measure_s", secs("refsim.measure"), "s"),
        metric("serve.busy_retry_ratio", 0.0, "ratio"),
        metric("serve.coalesce_ratio", 0.0, "ratio"),
        metric("serve.translations", 0.0, "count"),
        metric("serve.evictions", 0.0, "count"),
        metric("proto.bytes_per_session", 0.0, "bytes"),
    ];
    let extra = vec![
        metric("exp.render_s", per_session("exp.render"), "s"),
        metric("lint.validate_s", secs("lint.validate"), "s"),
    ];
    (layers, extra)
}
