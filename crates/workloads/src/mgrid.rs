//! **Mgrid** — a multigrid solver benchmark.
//!
//! A V-cycle multigrid for `width` independent 1-D Poisson problems
//! `−u″ = f` solved simultaneously (vector-valued unknowns, like the
//! line solves of a semicoarsened 3-D solver; the original NAS MG is
//! 3-D — the 1-D cycle preserves the performance-relevant structure: a
//! log-depth hierarchy of levels whose compute shrinks geometrically
//! while barrier and neighbour-exchange costs do not, which is why
//! Mgrid's speedup is so sensitive to communication parameters in
//! Figs. 4, 6, and 7).
//!
//! Every level stores `u`, `f`, and `r` as block-distributed collections
//! of `width`-wide points; smoothing and transfer operators read
//! neighbour points (remote at block boundaries) with two barriers per
//! sweep.  At coarse levels most threads own nothing and merely
//! synchronize.

use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Distribution, Index2, Program, ThreadCtx};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct MgridConfig {
    /// The finest level has `2^log2_size − 1` interior points (so that
    /// every coarse grid aligns with every second fine point).
    pub log2_size: u32,
    /// Number of V-cycles.
    pub cycles: usize,
    /// Pre/post smoothing sweeps per level.
    pub smooth: usize,
    /// Number of independent systems solved at once.
    pub width: usize,
}

impl Default for MgridConfig {
    fn default() -> MgridConfig {
        MgridConfig {
            log2_size: 8,
            cycles: 3,
            smooth: 2,
            width: 8,
        }
    }
}

/// Source term of system `s` on the finest grid.
fn f_term(i: usize, n: usize, s: usize) -> f64 {
    let x = (i + 1) as f64 / (n + 1) as f64;
    (std::f64::consts::PI * x).sin() * (1.0 + s as f64)
}

struct Level {
    n: usize,
    h2: f64,
    width: usize,
    u: Collection<Vec<f64>>,
    f: Collection<Vec<f64>>,
    r: Collection<Vec<f64>>,
}

impl Level {
    fn new(n: usize, h2: f64, width: usize, n_threads: usize) -> Level {
        let zero = move |_: Index2| vec![0.0; width];
        Level {
            n,
            h2,
            width,
            u: Collection::build(Distribution::block_1d(n, n_threads), zero),
            f: Collection::build(Distribution::block_1d(n, n_threads), zero),
            r: Collection::build(Distribution::block_1d(n, n_threads), zero),
        }
    }

    fn zeros(&self) -> Vec<f64> {
        vec![0.0; self.width]
    }

    /// Weighted-Jacobi sweep: `u ← (1−ω)u + ω(u[i−1] + u[i+1] + h²f)/2`,
    /// element-wise over the width.  Two barriers (gather, then update).
    async fn smooth(&self, ctx: &mut ThreadCtx<'_>) {
        const OMEGA: f64 = 2.0 / 3.0;
        let mut staged: Vec<(usize, Vec<f64>)> = Vec::new();
        for idx in self.u.local_indices(ctx.id()) {
            let i = idx.0;
            let left = if i > 0 {
                self.u.read(ctx, Index2(i - 1, 0), |v| v.clone())
            } else {
                self.zeros()
            };
            let right = if i + 1 < self.n {
                self.u.read(ctx, Index2(i + 1, 0), |v| v.clone())
            } else {
                self.zeros()
            };
            let cur = self.u.read(ctx, idx, |v| v.clone());
            let fv = self.f.read(ctx, idx, |v| v.clone());
            let new: Vec<f64> = (0..self.width)
                .map(|s| {
                    let jac = 0.5 * (left[s] + right[s] + self.h2 * fv[s]);
                    (1.0 - OMEGA) * cur[s] + OMEGA * jac
                })
                .collect();
            staged.push((i, new));
            ctx.charge_flops(7 * self.width as u64);
        }
        ctx.barrier().await;
        for (i, v) in staged {
            self.u.write(ctx, Index2(i, 0), |u| *u = v);
        }
        ctx.barrier().await;
    }

    /// Residual `r = f − A u` (A = second difference / h²).
    async fn residual(&self, ctx: &mut ThreadCtx<'_>) {
        let mut staged: Vec<(usize, Vec<f64>)> = Vec::new();
        for idx in self.u.local_indices(ctx.id()) {
            let i = idx.0;
            let left = if i > 0 {
                self.u.read(ctx, Index2(i - 1, 0), |v| v.clone())
            } else {
                self.zeros()
            };
            let right = if i + 1 < self.n {
                self.u.read(ctx, Index2(i + 1, 0), |v| v.clone())
            } else {
                self.zeros()
            };
            let cur = self.u.read(ctx, idx, |v| v.clone());
            let fv = self.f.read(ctx, idx, |v| v.clone());
            let res: Vec<f64> = (0..self.width)
                .map(|s| fv[s] - (2.0 * cur[s] - left[s] - right[s]) / self.h2)
                .collect();
            staged.push((i, res));
            ctx.charge_flops(6 * self.width as u64);
        }
        ctx.barrier().await;
        for (i, v) in staged {
            self.r.write(ctx, Index2(i, 0), |r| *r = v);
        }
        ctx.barrier().await;
    }
}

/// Runs the V-cycle multigrid; returns the trace and the fine-grid
/// solutions indexed `[s][i]`.
pub fn run(n_threads: usize, config: &MgridConfig) -> (ProgramTrace, Vec<Vec<f64>>) {
    let k = config.log2_size;
    assert!(k >= 3, "grid too small for a multigrid hierarchy");
    let width = config.width.max(1);
    let n0 = (1usize << k) - 1;
    let h0 = 1.0 / (n0 + 1) as f64;

    // Build the hierarchy down to 3 points; each coarse grid keeps every
    // second fine point, so spacing exactly doubles per level.
    let mut levels = Vec::new();
    let mut n = n0;
    let mut h2 = h0 * h0;
    while n >= 3 {
        levels.push(Level::new(n, h2, width, n_threads));
        n = (n - 1) / 2;
        h2 *= 4.0;
    }
    let depth = levels.len();
    let smooth = config.smooth;
    let cycles = config.cycles;

    let trace = Program::new(n_threads).run(async |ctx| {
        // Load f on the finest level.
        for idx in levels[0].f.local_indices(ctx.id()) {
            let v: Vec<f64> = (0..width).map(|s| f_term(idx.0, levels[0].n, s)).collect();
            levels[0].f.write(ctx, idx, |f| *f = v);
        }
        ctx.barrier().await;

        for _cycle in 0..cycles {
            // Downstroke.
            for l in 0..depth - 1 {
                for _ in 0..smooth {
                    levels[l].smooth(ctx).await;
                }
                levels[l].residual(ctx).await;
                // Restrict r to the next level's f (full weighting); the
                // coarse point i sits under fine point 2i+1.
                let (fine, coarse) = (&levels[l], &levels[l + 1]);
                let mut staged: Vec<(usize, Vec<f64>)> = Vec::new();
                for idx in coarse.f.local_indices(ctx.id()) {
                    let i = idx.0;
                    let fi = 2 * i + 1;
                    let a = fine.r.read(ctx, Index2(fi - 1, 0), |v| v.clone());
                    let b = fine.r.read(ctx, Index2(fi, 0), |v| v.clone());
                    let c = fine.r.read(ctx, Index2(fi + 1, 0), |v| v.clone());
                    let restricted: Vec<f64> = (0..width)
                        .map(|s| 0.25 * (a[s] + 2.0 * b[s] + c[s]))
                        .collect();
                    staged.push((i, restricted));
                    ctx.charge_flops(4 * width as u64);
                }
                ctx.barrier().await;
                for (i, v) in staged {
                    coarse.f.write(ctx, Index2(i, 0), |f| *f = v);
                    coarse.u.write(ctx, Index2(i, 0), |u| u.fill(0.0));
                }
                ctx.barrier().await;
            }
            // Coarsest level: relax hard.
            for _ in 0..smooth * 6 {
                levels[depth - 1].smooth(ctx).await;
            }
            // Upstroke.
            for l in (0..depth - 1).rev() {
                // Prolongate the coarse correction and add it in.
                let (fine, coarse) = (&levels[l], &levels[l + 1]);
                let mut staged: Vec<(usize, Vec<f64>)> = Vec::new();
                for idx in fine.u.local_indices(ctx.id()) {
                    let i = idx.0;
                    let corr: Vec<f64> = if i % 2 == 1 {
                        coarse.u.read(ctx, Index2((i - 1) / 2, 0), |v| v.clone())
                    } else {
                        let left = if i / 2 >= 1 {
                            coarse.u.read(ctx, Index2(i / 2 - 1, 0), |v| v.clone())
                        } else {
                            coarse.zeros()
                        };
                        let right = if i / 2 < coarse.n {
                            coarse.u.read(ctx, Index2(i / 2, 0), |v| v.clone())
                        } else {
                            coarse.zeros()
                        };
                        (0..width).map(|s| 0.5 * (left[s] + right[s])).collect()
                    };
                    staged.push((i, corr));
                    ctx.charge_flops(2 * width as u64);
                }
                ctx.barrier().await;
                for (i, corr) in staged {
                    fine.u.write(ctx, Index2(i, 0), |u| {
                        for (a, b) in u.iter_mut().zip(&corr) {
                            *a += b;
                        }
                    });
                }
                ctx.barrier().await;
                for _ in 0..smooth {
                    levels[l].smooth(ctx).await;
                }
            }
        }
    });

    let solutions = (0..width)
        .map(|s| {
            (0..n0)
                .map(|i| levels[0].u.peek(Index2(i, 0), |v| v[s]))
                .collect()
        })
        .collect();
    (trace, solutions)
}

/// Max-norm residual of system `s` on the finest grid.
pub fn residual_norm(solution: &[f64], s: usize) -> f64 {
    let n = solution.len();
    let h2 = 1.0 / (((n + 1) * (n + 1)) as f64);
    let at = |i: isize| -> f64 {
        if i < 0 || i as usize >= n {
            0.0
        } else {
            solution[i as usize]
        }
    };
    (0..n)
        .map(|i| {
            let ii = i as isize;
            (f_term(i, n, s) - (2.0 * at(ii) - at(ii - 1) - at(ii + 1)) / h2).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_toward_the_solution_for_every_system() {
        let cfg = MgridConfig {
            log2_size: 6,
            cycles: 6,
            smooth: 2,
            width: 3,
        };
        let (_, us) = run(4, &cfg);
        let pi = std::f64::consts::PI;
        for (s, u) in us.iter().enumerate() {
            let n = u.len();
            for (i, &v) in u.iter().enumerate() {
                let x = (i + 1) as f64 / (n + 1) as f64;
                let exact = (pi * x).sin() * (1.0 + s as f64) / (pi * pi);
                assert!(
                    (v - exact).abs() < 0.01 * (1.0 + s as f64),
                    "s={s} i={i} v={v} exact={exact}"
                );
            }
        }
    }

    #[test]
    fn residual_shrinks_with_more_cycles() {
        let mk = |cycles| MgridConfig {
            log2_size: 6,
            cycles,
            smooth: 2,
            width: 2,
        };
        let (_, u1) = run(2, &mk(1));
        let (_, u4) = run(2, &mk(4));
        assert!(residual_norm(&u4[0], 0) < residual_norm(&u1[0], 0) * 0.5);
    }

    #[test]
    fn thread_count_does_not_change_the_numerics() {
        let cfg = MgridConfig {
            log2_size: 5,
            cycles: 3,
            smooth: 2,
            width: 2,
        };
        let (_, a) = run(1, &cfg);
        let (_, b) = run(8, &cfg);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn barrier_heavy_profile() {
        let cfg = MgridConfig {
            log2_size: 6,
            cycles: 2,
            smooth: 2,
            width: 2,
        };
        let (trace, _) = run(4, &cfg);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // Many more barriers than Grid at comparable compute: the V-cycle
        // multiplies sweeps across levels.
        assert!(stats.barriers() > 100, "got {}", stats.barriers());
        assert!(stats.total_remote_accesses() > 0);
    }

    #[test]
    fn width_scales_bytes_not_barriers() {
        let mk = |width| {
            let (trace, _) = run(
                4,
                &MgridConfig {
                    log2_size: 5,
                    cycles: 1,
                    smooth: 1,
                    width,
                },
            );
            let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
            let st = extrap_trace::TraceStats::from_set(&ts);
            (st.barriers(), st.total_actual_bytes())
        };
        let (b1, bytes1) = mk(1);
        let (b8, bytes8) = mk(8);
        assert_eq!(b1, b8);
        assert!(bytes8 > bytes1 * 4);
    }
}
