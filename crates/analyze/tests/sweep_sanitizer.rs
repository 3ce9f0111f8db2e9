//! The bounds sanitizer sees every sweep job: exact jobs, representative
//! jobs whose clustering engages, and representative jobs that fall back
//! to the exact path — so `extrap sweep --check-bounds --strategy repr`
//! really checks the representative grid.
//!
//! Lives in its own integration-test binary because the sanitizer hook
//! is process-global: the counting checker installed here must not see
//! (or be replaced by) other tests' simulations.

use extrap_core::{
    machine, sanitizer, sweep, CompiledProgram, Prediction, SharedTraceCache, SimParams,
    SimStrategy, SweepJob,
};
use extrap_workloads::{Bench, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};

static CHECKED: AtomicUsize = AtomicUsize::new(0);

/// Counts every result handed to the sanitizer, then checks it for real.
fn counting_check(
    program: &CompiledProgram,
    params: &SimParams,
    prediction: &Prediction,
) -> Result<(), String> {
    CHECKED.fetch_add(1, Ordering::Relaxed);
    extrap_analyze::verify_prediction(program, params, prediction)
}

#[test]
fn sweep_sanitizes_exact_engaged_and_fallback_jobs() {
    sanitizer::install(counting_check);
    sanitizer::set_enabled(true);

    let exact = machine::default_distributed();
    let mut repr = exact.clone();
    repr.strategy = SimStrategy::representative();
    let jobs = vec![
        SweepJob {
            key: (Bench::Grid, 4),
            params: exact,
        },
        SweepJob {
            key: (Bench::Grid, 4),
            params: repr.clone(),
        },
        SweepJob {
            key: (Bench::Embar, 4),
            params: repr,
        },
    ];
    let cache = SharedTraceCache::new();
    let results = sweep(&jobs, 1, &cache, |&(bench, n)| {
        extrap_trace::translate(&bench.trace(n, Scale::Small), Default::default())
    });
    let preds: Vec<Prediction> = results.into_iter().map(|r| r.expect("sweep job")).collect();

    // Grid's representative run engaged: fewer events than exact.
    assert!(
        preds[1].events_dispatched < preds[0].events_dispatched,
        "grid repr must engage ({} vs {} events)",
        preds[1].events_dispatched,
        preds[0].events_dispatched
    );
    // Embar has no repeating epochs to cluster: the job fell back.
    let embar = cache
        .get_or_translate((Bench::Embar, 4), || unreachable!("cached by the sweep"))
        .expect("embar entry");
    let tolerance = SimStrategy::DEFAULT_TOLERANCE;
    assert!(embar
        .repr_plan(SimStrategy::DEFAULT_MAX_CLUSTERS, tolerance)
        .is_none());

    assert_eq!(
        CHECKED.load(Ordering::Relaxed),
        jobs.len(),
        "every sweep job must pass through the sanitizer"
    );
}
