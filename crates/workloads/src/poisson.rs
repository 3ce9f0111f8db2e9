//! **Poisson** — a fast (direct) Poisson solver.
//!
//! Solves `−∇²u = f` on a `P×P` interior by the matrix decomposition
//! method: a discrete sine transform along each locally-owned row, a
//! global **transpose** (the all-to-all communication that dominates this
//! benchmark), independent tridiagonal solves in the transformed basis
//! (Thomas algorithm, local), a transpose back, and the inverse
//! transform.  Rows are distributed `(Block, Whole)`.

use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Dist1, Distribution, Index2, Program};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct PoissonConfig {
    /// Interior grid size `P` (the solver is O(P³) through the naive
    /// DST, like the original pC++ code's transform step).
    pub size: usize,
}

impl Default for PoissonConfig {
    fn default() -> PoissonConfig {
        PoissonConfig { size: 24 }
    }
}

/// Source term.
fn f_term(i: usize, j: usize, p: usize) -> f64 {
    let x = (i + 1) as f64 / (p + 1) as f64;
    let y = (j + 1) as f64 / (p + 1) as f64;
    let pi = std::f64::consts::PI;
    (pi * x).sin() * (2.0 * pi * y).sin()
}

/// Naive DST-I of a vector (O(P²) flops — the benchmark's compute).
fn dst(v: &[f64]) -> Vec<f64> {
    let p = v.len();
    let pi = std::f64::consts::PI;
    (0..p)
        .map(|k| {
            (0..p)
                .map(|j| v[j] * ((pi * ((j + 1) * (k + 1)) as f64) / (p + 1) as f64).sin())
                .sum()
        })
        .collect()
}

/// Runs the solver; returns the trace and the `P×P` solution (row-major).
pub fn run(n_threads: usize, config: &PoissonConfig) -> (ProgramTrace, Vec<f64>) {
    let p = config.size;
    let h2 = 1.0 / (((p + 1) * (p + 1)) as f64);
    let pi = std::f64::consts::PI;
    let dist = || Distribution::new((p, p), (Dist1::Block, Dist1::Whole), n_threads);
    // Working matrices, all row-distributed.
    let g = Collection::<f64>::build(dist(), |idx| h2 * f_term(idx.0, idx.1, p));
    let gt = Collection::<f64>::build(dist(), |_| 0.0);
    let u = Collection::<f64>::build(dist(), |_| 0.0);

    let trace = Program::new(n_threads).run(async |ctx| {
        let my_rows: Vec<usize> = (0..p)
            .filter(|&r| g.owner(Index2(r, 0)) == ctx.id())
            .collect();
        // Step 1: DST along each local row (transforms the column index).
        for &r in &my_rows {
            let row: Vec<f64> = (0..p).map(|j| g.read(ctx, Index2(r, j), |v| *v)).collect();
            let hat = dst(&row);
            ctx.charge_flops((3 * p * p) as u64);
            for (j, v) in hat.into_iter().enumerate() {
                g.write(ctx, Index2(r, j), |x| *x = v);
            }
        }
        ctx.barrier().await;
        // Step 2: transpose (all-to-all; gt[k][i] = g[i][k]).
        for &k in &my_rows {
            for i in 0..p {
                let v = g.read(ctx, Index2(i, k), |x| *x);
                gt.write(ctx, Index2(k, i), |x| *x = v);
            }
        }
        ctx.barrier().await;
        // Step 3: for each transformed mode k (a local row of gt), solve
        // the tridiagonal system (A + lambda_k I) x = rhs along i.
        for &k in &my_rows {
            let lambda = 4.0
                * ((pi * (k + 1) as f64) / (2.0 * (p + 1) as f64))
                    .sin()
                    .powi(2);
            let diag = 2.0 + lambda;
            let rhs: Vec<f64> = (0..p).map(|i| gt.read(ctx, Index2(k, i), |x| *x)).collect();
            // Thomas algorithm with constant coefficients (-1, diag, -1).
            let mut c_prime = vec![0.0; p];
            let mut d_prime = vec![0.0; p];
            c_prime[0] = -1.0 / diag;
            d_prime[0] = rhs[0] / diag;
            for i in 1..p {
                let m = diag + c_prime[i - 1];
                c_prime[i] = -1.0 / m;
                d_prime[i] = (rhs[i] + d_prime[i - 1]) / m;
            }
            let mut x = vec![0.0; p];
            x[p - 1] = d_prime[p - 1];
            for i in (0..p - 1).rev() {
                x[i] = d_prime[i] - c_prime[i] * x[i + 1];
            }
            ctx.charge_flops((8 * p) as u64);
            for (i, v) in x.into_iter().enumerate() {
                gt.write(ctx, Index2(k, i), |q| *q = v);
            }
        }
        ctx.barrier().await;
        // Step 4: transpose back into u.
        for &i in &my_rows {
            for k in 0..p {
                let v = gt.read(ctx, Index2(k, i), |x| *x);
                u.write(ctx, Index2(i, k), |x| *x = v);
            }
        }
        ctx.barrier().await;
        // Step 5: inverse DST along each local row.
        for &r in &my_rows {
            let row: Vec<f64> = (0..p).map(|j| u.read(ctx, Index2(r, j), |v| *v)).collect();
            let back = dst(&row);
            ctx.charge_flops((3 * p * p) as u64);
            let scale = 2.0 / (p + 1) as f64;
            for (j, v) in back.into_iter().enumerate() {
                u.write(ctx, Index2(r, j), |x| *x = v * scale);
            }
        }
        ctx.barrier().await;
    });

    let mut out = vec![0.0; p * p];
    for i in 0..p {
        for j in 0..p {
            out[i * p + j] = u.peek(Index2(i, j), |v| *v);
        }
    }
    (trace, out)
}

/// Max-norm residual of the 5-point Laplacian against `f` (h²-scaled
/// formulation, so a direct solve is exact to rounding).
pub fn residual_norm(config: &PoissonConfig, u: &[f64]) -> f64 {
    let p = config.size;
    let h2 = 1.0 / (((p + 1) * (p + 1)) as f64);
    let at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i as usize >= p || j as usize >= p {
            0.0
        } else {
            u[i as usize * p + j as usize]
        }
    };
    let mut worst: f64 = 0.0;
    for i in 0..p {
        for j in 0..p {
            let (ii, jj) = (i as isize, j as isize);
            let lap = 4.0 * at(ii, jj)
                - at(ii - 1, jj)
                - at(ii + 1, jj)
                - at(ii, jj - 1)
                - at(ii, jj + 1);
            worst = worst.max((lap - h2 * f_term(i, j, p)).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_solver_is_exact() {
        let cfg = PoissonConfig { size: 12 };
        for threads in [1, 2, 4] {
            let (_, u) = run(threads, &cfg);
            let r = residual_norm(&cfg, &u);
            assert!(r < 1e-10, "threads {threads}: residual {r}");
        }
    }

    #[test]
    fn matches_analytic_solution_scale() {
        // For f = sin(pi x) sin(2 pi y), the continuous solution of
        // −∇²u = f is u = f / (pi² + 4 pi²); the discrete solution
        // approximates it.
        let cfg = PoissonConfig { size: 16 };
        let (_, u) = run(2, &cfg);
        let p = cfg.size;
        let pi = std::f64::consts::PI;
        let (i, j) = (p / 4, p / 8);
        let x = (i + 1) as f64 / (p + 1) as f64;
        let y = (j + 1) as f64 / (p + 1) as f64;
        let expect = (pi * x).sin() * (2.0 * pi * y).sin() / (5.0 * pi * pi);
        let got = u[i * p + j];
        assert!(
            (got - expect).abs() < 0.05 * expect.abs().max(0.01),
            "got {got} expect {expect}"
        );
    }

    #[test]
    fn transpose_dominates_communication() {
        let cfg = PoissonConfig { size: 16 };
        let (trace, _) = run(4, &cfg);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // Two transposes of a 16x16 matrix over 4 threads: roughly
        // 2 * 16*16 * 3/4 remote reads/writes.
        assert!(stats.total_remote_accesses() > 300);
        assert_eq!(stats.barriers(), 5);
    }

    #[test]
    fn thread_counts_exceeding_rows_still_work() {
        let cfg = PoissonConfig { size: 8 };
        let (_, u) = run(16, &cfg);
        assert!(residual_norm(&cfg, &u) < 1e-10);
    }
}
