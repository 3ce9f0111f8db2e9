//! The worker pool: pops admitted jobs off the queue and executes them,
//! coalescing compatible sweeps into one shared grid per batch.

use crate::state::{JobPayload, Service, SimWork, SweepKey, SweepWork, Work};
use extrap_core::sweep::{sweep_cancellable, SweepJob};
use extrap_core::{ExtrapError, Extrapolator};
use extrap_proto::{ErrorCode, JobId, PredictionSummary, SweepRow};
use pcpp_rt::sync::Instant;
use std::collections::HashMap;

/// One worker thread's life: execute jobs until shutdown drains the
/// queue.
pub(crate) fn run(service: &Service) {
    while let Some(qw) = service.next_work() {
        match qw.work {
            Work::Simulate(sim) => run_simulate(service, sim, qw.deadline),
            Work::Sweep(first) => run_sweep_batch(service, first, qw.deadline),
        }
    }
}

/// Fails a job with `Timeout` if its deadline passed while it was
/// queued; returns whether it did.
fn expired(service: &Service, job: JobId, deadline: Instant) -> bool {
    if Instant::now() > deadline {
        service.complete(
            job,
            Err((
                ErrorCode::Timeout,
                "job exceeded the request timeout while queued".to_string(),
            )),
        );
        true
    } else {
        false
    }
}

fn run_simulate(service: &Service, sim: SimWork, deadline: Instant) {
    if expired(service, sim.job, deadline) {
        return;
    }
    let outcome = Extrapolator::new(sim.params)
        .run(sim.trace.program())
        .map(|p| JobPayload::Prediction(PredictionSummary::from(&p)))
        .map_err(|e| (ErrorCode::Internal, e.to_string()));
    service.complete(sim.job, outcome);
}

/// Executes one sweep batch: linger for `batch_window` so concurrent
/// compatible sweeps can join, union the members' grids (deduped), run
/// the whole thing through one `sweep_cancellable` call, then hand each
/// member its own slice of the shared results.
fn run_sweep_batch(service: &Service, first: SweepWork, first_deadline: Instant) {
    let window = service.config().batch_window;
    if !window.is_zero() && !service.is_shutting_down() {
        std::thread::sleep(window);
    }
    let (scale_code, compat) = (first.scale_code, first.compat.clone());
    let mut batch = vec![(first, first_deadline)];
    for qw in service.drain_compatible(scale_code, &compat) {
        if let Work::Sweep(s) = qw.work {
            batch.push((s, qw.deadline));
        }
    }
    service.count_sweep_batch(batch.len());

    let mut live: Vec<SweepWork> = Vec::with_capacity(batch.len());
    for (s, deadline) in batch {
        if !expired(service, s.job, deadline) {
            live.push(s);
        }
    }
    if live.is_empty() {
        return;
    }

    // Union grid in first-seen order, deduped: a point requested by
    // five coalesced sweeps simulates once and fans out five times.
    let mut index: HashMap<(String, usize), usize> = HashMap::new();
    let mut jobs: Vec<SweepJob<SweepKey>> = Vec::new();
    for s in &live {
        for b in &s.benches {
            for &n in &s.procs {
                let point = (b.name().to_string(), n as usize);
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(point) {
                    jobs.push(SweepJob {
                        key: (e.key().0.clone(), e.key().1, s.scale_code),
                        params: s.params.clone(),
                    });
                    e.insert(jobs.len() - 1);
                }
            }
        }
    }

    let scale = live[0].scale;
    let results = sweep_cancellable(
        &jobs,
        service.config().sweep_workers,
        service.cancel_token(),
        |key| {
            service.sweep_cache().get_or_translate(key.clone(), || {
                let (name, n, _) = key;
                let bench = extrap_workloads::Bench::all()
                    .into_iter()
                    .find(|b| b.name() == name.as_str())
                    .expect("benchmark validated at admission");
                extrap_trace::translate(&bench.trace(*n, scale), Default::default())
            })
        },
    );

    // Exact integer nanoseconds per grid point; clients re-derive any
    // float rendering from these, byte-identically to the in-process
    // pipeline.
    let points: Vec<Result<u64, (ErrorCode, String)>> = results
        .iter()
        .map(|r| match r {
            Ok(p) => Ok(p.exec_time().as_ns()),
            Err(e) => Err(match e.error {
                ExtrapError::Cancelled => (ErrorCode::ShuttingDown, e.to_string()),
                _ => (ErrorCode::Internal, e.to_string()),
            }),
        })
        .collect();

    for s in &live {
        let mut rows = Vec::with_capacity(s.benches.len() * s.procs.len());
        let mut failure: Option<(ErrorCode, String)> = None;
        'member: for b in &s.benches {
            for &n in &s.procs {
                let i = index[&(b.name().to_string(), n as usize)];
                match &points[i] {
                    Ok(ns) => rows.push(SweepRow {
                        bench: b.name().to_string(),
                        procs: n,
                        exec_time_ns: *ns,
                    }),
                    Err(e) => {
                        failure = Some(e.clone());
                        break 'member;
                    }
                }
            }
        }
        let outcome = match failure {
            None => Ok(JobPayload::Rows(rows)),
            Some(e) => Err(e),
        };
        service.complete(s.job, outcome);
    }
    service.enforce_budget();
}
