//! **Grid** — Poisson equation on a two-dimensional grid.
//!
//! Jacobi relaxation of `∇²u = f` on a `P×P` interior with zero boundary.
//! The grid is split into `s×s` subgrid *elements* (`s = ⌊√n⌋`, the pC++
//! (BLOCK, BLOCK) thread grid), so a remote access's **declared** size is
//! the whole subgrid — tens of kilobytes — while the **actual** transfer
//! is one boundary row or column (`m·8` bytes).  This is precisely the
//! compiler measurement abstraction the paper's §4.1 investigation
//! uncovers.
//!
//! Threads outside the `s×s` grid own nothing and just synchronize (the
//! no-speedup-from-4-to-8 artifact).
//!
//! Two sweep structures are provided.  The **fused** form (the default,
//! matching the pC++ code's single relaxation method) reads the four
//! neighbour edges inline and updates in place with *one* barrier per
//! iteration — remote requests therefore arrive while owners are in
//! their update loops, which is what makes the Fig. 8 service-policy
//! comparison meaningful.  Values follow a deterministic chaotic
//! (Gauss–Seidel-flavoured) relaxation that converges to the same fixed
//! point.  The **two-phase** form (`fused = false`) gathers all halos,
//! barriers, then updates — textbook Jacobi, bit-identical to the
//! sequential reference for any thread count, used by the numerical
//! tests.

use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Distribution, Index2, Program};
use std::cell::RefCell;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Interior size `P` (must be divisible by `⌊√n⌋` for every thread
    /// count used).
    pub size: usize,
    /// Relaxation iterations.
    pub iters: usize,
    /// Fused single-barrier sweeps (default) vs two-phase exact Jacobi.
    pub fused: bool,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            size: 40,
            iters: 60,
            fused: true,
        }
    }
}

/// Source term.
fn f_term() -> f64 {
    2.0
}

/// Runs the benchmark; returns the trace and the final full grid
/// (row-major `P×P`).
pub fn run(n_threads: usize, config: &GridConfig) -> (ProgramTrace, Vec<f64>) {
    let p = config.size;
    let s = pcpp_rt::distribution::isqrt(n_threads);
    assert!(
        p.is_multiple_of(s),
        "grid size {p} must divide evenly into a {s}x{s} thread grid"
    );
    let m = p / s; // subgrid side
    let iters = config.iters;
    let h2 = 1.0 / ((p + 1) as f64 * (p + 1) as f64);

    // One subgrid element per (BLOCK, BLOCK) position, row-major m×m.
    let grid = Collection::<Vec<f64>>::build(Distribution::block_block(s, s, n_threads), |_| {
        vec![0.0; m * m]
    });
    // Scratch for the halos each thread gathered in the read phase.
    let halos: RefCell<Vec<Halo>> = RefCell::new((0..n_threads).map(|_| Halo::new(m)).collect());

    struct Halo {
        top: Vec<f64>,
        bottom: Vec<f64>,
        left: Vec<f64>,
        right: Vec<f64>,
    }
    impl Halo {
        fn new(m: usize) -> Halo {
            Halo {
                top: vec![0.0; m],
                bottom: vec![0.0; m],
                left: vec![0.0; m],
                right: vec![0.0; m],
            }
        }
    }

    let fused = config.fused;
    let trace = Program::new(n_threads).run(async |ctx| {
        let id = ctx.id();
        let my_pos = grid.local_indices(id).next();
        let row_bytes = (m * 8) as u32;
        for _ in 0..iters {
            // Gather the four neighbour edges.
            if let Some(pos) = my_pos {
                let Index2(r, c) = pos;
                let mut halo = Halo::new(m);
                if r > 0 {
                    halo.top = grid.read_part(ctx, Index2(r - 1, c), row_bytes, |v| {
                        v[(m - 1) * m..].to_vec()
                    });
                }
                if r + 1 < s {
                    halo.bottom =
                        grid.read_part(ctx, Index2(r + 1, c), row_bytes, |v| v[..m].to_vec());
                }
                if c > 0 {
                    halo.left = grid.read_part(ctx, Index2(r, c - 1), row_bytes, |v| {
                        (0..m).map(|i| v[i * m + m - 1]).collect()
                    });
                }
                if c + 1 < s {
                    halo.right = grid.read_part(ctx, Index2(r, c + 1), row_bytes, |v| {
                        (0..m).map(|i| v[i * m]).collect()
                    });
                }
                halos.borrow_mut()[id.index()] = halo;
            }
            if !fused {
                // Two-phase Jacobi: everyone snapshots old halos first.
                ctx.barrier().await;
            }
            // Update the interior from the gathered halos.
            if let Some(pos) = my_pos {
                let halo_guard = halos.borrow();
                let halo = &halo_guard[id.index()];
                let old = grid.read(ctx, pos, |v| v.clone());
                let mut new = vec![0.0; m * m];
                for i in 0..m {
                    for j in 0..m {
                        let up = if i > 0 {
                            old[(i - 1) * m + j]
                        } else {
                            halo.top[j]
                        };
                        let down = if i + 1 < m {
                            old[(i + 1) * m + j]
                        } else {
                            halo.bottom[j]
                        };
                        let left = if j > 0 {
                            old[i * m + j - 1]
                        } else {
                            halo.left[i]
                        };
                        let right = if j + 1 < m {
                            old[i * m + j + 1]
                        } else {
                            halo.right[i]
                        };
                        new[i * m + j] = 0.25 * (up + down + left + right + h2 * f_term());
                    }
                }
                ctx.charge_flops(6 * (m * m) as u64);
                drop(halo_guard);
                grid.write(ctx, pos, |v| *v = new);
            }
            ctx.barrier().await;
        }
    });

    // Reassemble the full grid (uninstrumented).
    let mut full = vec![0.0; p * p];
    for r in 0..s {
        for c in 0..s {
            grid.peek(Index2(r, c), |v| {
                for i in 0..m {
                    for j in 0..m {
                        full[(r * m + i) * p + (c * m + j)] = v[i * m + j];
                    }
                }
            });
        }
    }
    (trace, full)
}

/// Sequential Jacobi reference with identical iteration count.
pub fn reference(config: &GridConfig) -> Vec<f64> {
    let p = config.size;
    let h2 = 1.0 / ((p + 1) as f64 * (p + 1) as f64);
    let at = |g: &[f64], i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i as usize >= p || j as usize >= p {
            0.0
        } else {
            g[i as usize * p + j as usize]
        }
    };
    let mut cur = vec![0.0; p * p];
    for _ in 0..config.iters {
        let mut next = vec![0.0; p * p];
        for i in 0..p {
            for j in 0..p {
                let (i, j) = (i as isize, j as isize);
                next[i as usize * p + j as usize] = 0.25
                    * (at(&cur, i - 1, j)
                        + at(&cur, i + 1, j)
                        + at(&cur, i, j - 1)
                        + at(&cur, i, j + 1)
                        + h2 * f_term());
            }
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_trace::{EventKind, TraceStats};

    #[test]
    fn matches_sequential_reference_for_every_thread_count() {
        let cfg = GridConfig {
            size: 8,
            iters: 20,
            fused: false,
        };
        let expected = reference(&cfg);
        for threads in [1, 4, 8, 16] {
            let (_, got) = run(threads, &cfg);
            for (a, b) in got.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-12, "threads {threads}");
            }
        }
    }

    #[test]
    fn idle_threads_produce_no_remote_traffic() {
        // 8 threads -> 2x2 busy grid, 4 idle threads.
        let cfg = GridConfig {
            size: 8,
            iters: 4,
            fused: true,
        };
        let (trace, _) = run(8, &cfg);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = TraceStats::from_set(&ts);
        for t in 4..8 {
            let th = stats.thread(extrap_time::ThreadId(t));
            assert_eq!(th.remote_reads, 0);
            assert_eq!(th.compute.as_ns(), 0);
        }
    }

    #[test]
    fn declared_vs_actual_size_gap() {
        let cfg = GridConfig {
            size: 16,
            iters: 2,
            fused: true,
        };
        let (trace, _) = run(16, &cfg);
        let remote = trace
            .records
            .iter()
            .find_map(|r| match r.kind {
                EventKind::RemoteRead {
                    declared_bytes,
                    actual_bytes,
                    ..
                } => Some((declared_bytes, actual_bytes)),
                _ => None,
            })
            .expect("grid run has remote reads");
        // Subgrid 4x4 of f64: declared 128 bytes; edge: 32 bytes.
        assert_eq!(remote.0, 128);
        assert_eq!(remote.1, 32);
    }

    #[test]
    fn barrier_count_per_iteration() {
        // Fused sweeps barrier once per iteration; two-phase Jacobi
        // twice.
        let fused = GridConfig {
            size: 8,
            iters: 5,
            fused: true,
        };
        let (trace, _) = run(4, &fused);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        assert_eq!(TraceStats::from_set(&ts).barriers(), 5);
        let two_phase = GridConfig {
            fused: false,
            ..fused
        };
        let (trace, _) = run(4, &two_phase);
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        assert_eq!(TraceStats::from_set(&ts).barriers(), 10);
    }

    #[test]
    fn solution_moves_toward_poisson_solution() {
        let cfg = GridConfig {
            size: 8,
            iters: 200,
            fused: true,
        };
        let (_, got) = run(4, &cfg);
        // With f=2 and zero boundary the solution is positive inside and
        // symmetric; check center is the max and positive.
        let p = cfg.size;
        let center = got[(p / 2) * p + p / 2];
        assert!(center > 0.0);
        assert!(got.iter().all(|&v| v <= center + 1e-12));
    }
}
