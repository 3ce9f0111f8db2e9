//! **Cyclic** — cyclic reduction for batched tridiagonal systems.
//!
//! The classic odd-even cyclic reduction algorithm on `N = 2^k − 1` rows,
//! solving `batch` independent systems that share the same tridiagonal
//! matrix but have different right-hand sides (the usual vectorized
//! formulation — e.g. line solves of an ADI sweep).  `log N`
//! forward-elimination levels are followed by `log N` back-substitution
//! levels, with a global barrier per level and remote row accesses at
//! distance `2^(l−1)` — parallelism halves at each deeper level, giving
//! the growing synchronization/communication share typical of this
//! benchmark.

use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Distribution, Index2, Program};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct CyclicConfig {
    /// log2(N+1): the system has `2^log2_size − 1` rows.
    pub log2_size: u32,
    /// Number of independent right-hand sides solved simultaneously.
    pub batch: usize,
}

impl Default for CyclicConfig {
    fn default() -> CyclicConfig {
        CyclicConfig {
            log2_size: 8,
            batch: 16,
        }
    }
}

/// Deterministic right-hand side for system `s`, row `i`.
fn rhs(i: usize, s: usize) -> f64 {
    ((i as f64) * 0.37 + s as f64).sin() + 1.5
}

/// Row layout: `[a, b, c, d_0, .., d_{batch-1}]`.
const A: usize = 0;
const B: usize = 1;
const C: usize = 2;
const D: usize = 3;

/// Runs cyclic reduction on `n_threads`; returns the trace and the
/// solutions (`batch` vectors of length `N`, indexed `[s][i]`).
pub fn run(n_threads: usize, config: &CyclicConfig) -> (ProgramTrace, Vec<Vec<f64>>) {
    let k = config.log2_size;
    let batch = config.batch.max(1);
    assert!(k >= 2, "system too small");
    let n = (1usize << k) - 1;
    let rows = Collection::<Vec<f64>>::build(Distribution::block_1d(n, n_threads), |i| {
        let a = if i.0 == 0 { 0.0 } else { 1.0 };
        let c = if i.0 == n - 1 { 0.0 } else { 1.0 };
        let mut row = vec![a, 4.0, c];
        row.extend((0..batch).map(|s| rhs(i.0, s)));
        row
    });
    let xs =
        Collection::<Vec<f64>>::build(Distribution::block_1d(n, n_threads), |_| vec![0.0; batch]);

    let trace = Program::new(n_threads).run(async |ctx| {
        // Forward elimination.
        for l in 1..k {
            let stride = 1usize << l;
            let h = stride >> 1;
            for idx in rows.local_indices(ctx.id()) {
                let i = idx.0;
                if (i + 1) % stride != 0 {
                    continue;
                }
                let lo = rows.get(ctx, Index2(i - h, 0));
                let hi = if i + h < n {
                    rows.get(ctx, Index2(i + h, 0))
                } else {
                    vec![0.0; 3 + batch]
                };
                rows.write(ctx, idx, |me| {
                    let alpha = -me[A] / lo[B];
                    let beta = if i + h < n { -me[C] / hi[B] } else { 0.0 };
                    me[A] = alpha * lo[A];
                    me[B] += alpha * lo[C] + beta * hi[A];
                    me[C] = beta * hi[C];
                    for s in 0..batch {
                        me[D + s] += alpha * lo[D + s] + beta * hi[D + s];
                    }
                });
                ctx.charge_flops(10 + 4 * batch as u64);
            }
            ctx.barrier().await;
        }
        // Solve the single remaining middle row.
        let mid = (1usize << (k - 1)) - 1;
        if rows.owner(Index2(mid, 0)) == ctx.id() {
            let r = rows.get(ctx, Index2(mid, 0));
            xs.write(ctx, Index2(mid, 0), |x| {
                for s in 0..batch {
                    x[s] = r[D + s] / r[B];
                }
            });
            ctx.charge_flops(batch as u64);
        }
        ctx.barrier().await;
        // Back substitution.
        for l in (1..k).rev() {
            let stride = 1usize << l;
            let h = stride >> 1;
            for idx in xs.local_indices(ctx.id()) {
                let i = idx.0;
                if (i + 1) % stride != h {
                    continue;
                }
                let r = rows.get(ctx, idx);
                let xl = if i >= h {
                    xs.read(ctx, Index2(i - h, 0), |x| x.clone())
                } else {
                    vec![0.0; batch]
                };
                let xr = if i + h < n {
                    xs.read(ctx, Index2(i + h, 0), |x| x.clone())
                } else {
                    vec![0.0; batch]
                };
                xs.write(ctx, idx, |x| {
                    for s in 0..batch {
                        x[s] = (r[D + s] - r[A] * xl[s] - r[C] * xr[s]) / r[B];
                    }
                });
                ctx.charge_flops(5 * batch as u64);
            }
            ctx.barrier().await;
        }
    });

    let solutions: Vec<Vec<f64>> = (0..batch)
        .map(|s| (0..n).map(|i| xs.peek(Index2(i, 0), |x| x[s])).collect())
        .collect();
    (trace, solutions)
}

/// Residual `max_i |a·x[i−1] + b·x[i] + c·x[i+1] − d[i]|` of system `s`.
pub fn residual(solution: &[f64], s: usize) -> f64 {
    let n = solution.len();
    let x = |i: isize| -> f64 {
        if i < 0 || i as usize >= n {
            0.0
        } else {
            solution[i as usize]
        }
    };
    (0..n)
        .map(|i| {
            let a = if i == 0 { 0.0 } else { 1.0 };
            let c = if i == n - 1 { 0.0 } else { 1.0 };
            (a * x(i as isize - 1) + 4.0 * solution[i] + c * x(i as isize + 1) - rhs(i, s)).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_every_system_in_the_batch() {
        for threads in [1, 2, 4] {
            let cfg = CyclicConfig {
                log2_size: 6,
                batch: 3,
            };
            let (_, xs) = run(threads, &cfg);
            assert_eq!(xs.len(), 3);
            for (s, x) in xs.iter().enumerate() {
                assert_eq!(x.len(), 63);
                let r = residual(x, s);
                assert!(r < 1e-9, "threads {threads} system {s} residual {r}");
            }
        }
    }

    #[test]
    fn solution_is_thread_count_invariant() {
        let cfg = CyclicConfig {
            log2_size: 6,
            batch: 2,
        };
        let (_, x1) = run(1, &cfg);
        let (_, x4) = run(4, &cfg);
        for (a, b) in x1.iter().flatten().zip(x4.iter().flatten()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_has_a_barrier_per_level() {
        let cfg = CyclicConfig {
            log2_size: 6,
            batch: 2,
        };
        let (trace, _) = run(4, &cfg);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // (k-1) forward + 1 middle + (k-1) backward = 2k-1 = 11 barriers.
        assert_eq!(stats.barriers(), 11);
        assert!(stats.total_remote_accesses() > 0);
    }

    #[test]
    fn batch_scales_transfer_sizes_not_event_counts() {
        let mk = |batch| {
            let (trace, _) = run(
                4,
                &CyclicConfig {
                    log2_size: 6,
                    batch,
                },
            );
            let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
            let st = extrap_trace::TraceStats::from_set(&ts);
            (st.total_remote_accesses(), st.total_actual_bytes())
        };
        let (events_small, bytes_small) = mk(2);
        let (events_big, bytes_big) = mk(16);
        assert_eq!(events_small, events_big);
        assert!(bytes_big > bytes_small * 3);
    }
}
