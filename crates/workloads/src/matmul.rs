//! **Matmul** — the §4.2 validation program.
//!
//! The paper's naive matrix multiply: `A·B` with `Bᵀ` given, both
//! distributed identically by one of nine two-dimensional distribution
//! combinations (`Block`/`Cyclic`/`Whole` per dimension).  For each row
//! `k` of `Bᵀ`:
//!
//! 1. **broadcast** the row into a temporary `T` — each thread fetches
//!    the *segment* of the row covering its own columns as one bulk
//!    remote element transfer;
//! 2. **pointwise multiply** with the local part of `A`, accumulating a
//!    partial sum per local row;
//! 3. a **right-to-left global summation** chained across the thread
//!    grid's columns (one bulk partial-vector transfer per hop) places
//!    column `k` of the result.
//!
//! The distribution choice changes only the communication pattern, never
//! the arithmetic — which is why the experiment can rank distributions.

use extrap_trace::ProgramTrace;
use pcpp_rt::{Collection, Dist1, Distribution, Index2, Program};

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct MatmulConfig {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Distribution attributes for both `A` and `Bᵀ` (and the result).
    pub dist: (Dist1, Dist1),
}

impl Default for MatmulConfig {
    fn default() -> MatmulConfig {
        MatmulConfig {
            n: 16,
            dist: (Dist1::Block, Dist1::Block),
        }
    }
}

/// The nine distribution combinations of Fig. 9, in the paper's order.
pub fn nine_distributions() -> [(Dist1, Dist1); 9] {
    use Dist1::*;
    [
        (Block, Block),
        (Block, Cyclic),
        (Block, Whole),
        (Cyclic, Block),
        (Cyclic, Cyclic),
        (Cyclic, Whole),
        (Whole, Block),
        (Whole, Cyclic),
        (Whole, Whole),
    ]
}

/// Deterministic matrix entries.
fn a_entry(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 13) as f64 - 6.0
}
fn b_entry(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 23) % 11) as f64 - 5.0
}

/// Runs Matmul; returns the trace and the row-major product `A·B`.
pub fn run(n_threads: usize, config: &MatmulConfig) -> (ProgramTrace, Vec<f64>) {
    let n = config.n;
    let dist = Distribution::new((n, n), config.dist, n_threads);
    let tgrid = dist.tgrid;
    let (tg0, tg1) = tgrid;

    // Thread-grid coordinates of every row / column index.
    let row_group: Vec<usize> = (0..n)
        .map(|i| dist.owner(Index2(i, 0)).index() / tg1)
        .collect();
    let col_group: Vec<usize> = (0..n)
        .map(|j| dist.owner(Index2(0, j)).index() % tg1)
        .collect();
    // Members of each group, ascending.
    let rows_of: Vec<Vec<usize>> = (0..tg0)
        .map(|g| (0..n).filter(|&i| row_group[i] == g).collect())
        .collect();
    let cols_of: Vec<Vec<usize>> = (0..tg1)
        .map(|g| (0..n).filter(|&j| col_group[j] == g).collect())
        .collect();

    let a = Collection::<f64>::build(dist, |i| a_entry(i.0, i.1));
    let c = Collection::<f64>::build(dist, |_| 0.0);
    // Bt row segments: element (k, g) holds bt[k][j] = b[j][k] for the
    // columns j of thread-grid column g, owned by thread (rg(k), g).
    let cols_for_seg = cols_of.clone();
    let btseg = Collection::<Vec<f64>>::build(
        Distribution::with_tgrid((n, tg1), (config.dist.0, Dist1::Block), tgrid, n_threads),
        |idx| {
            let (k, g) = (idx.0, idx.1);
            cols_for_seg[g].iter().map(|&j| b_entry(j, k)).collect()
        },
    );
    // Reduction chain: element (tr, g) carries the right-to-left running
    // sums for the rows of row-group tr, owned by thread (tr, g).
    let rows_per_group = rows_of.iter().map(|r| r.len()).max().unwrap_or(0);
    let chain = Collection::<Vec<f64>>::build(
        Distribution::with_tgrid((tg0, tg1), (Dist1::Block, Dist1::Block), tgrid, n_threads),
        |_| vec![0.0; rows_per_group],
    );

    let trace = Program::new(n_threads).run(async |ctx| {
        let me = ctx.id().index();
        let in_grid = me < tg0 * tg1;
        let (my_tr, my_tc) = (me / tg1, me % tg1);
        let my_rows: &[usize] = if in_grid { &rows_of[my_tr] } else { &[] };
        let my_cols: &[usize] = if in_grid { &cols_of[my_tc] } else { &[] };

        #[allow(clippy::needless_range_loop)] // k is the algorithm's step index
        for k in 0..n {
            // Phase 1: broadcast — fetch this thread's segment of row k.
            let t_seg: Vec<f64> = if in_grid && !my_cols.is_empty() {
                btseg.read(ctx, Index2(k, my_tc), |v| v.clone())
            } else {
                Vec::new()
            };
            ctx.barrier().await;
            // Phase 2: local pointwise multiply + per-row partial sums.
            let mut partial = vec![0.0; rows_per_group];
            if in_grid {
                for (ri, &i) in my_rows.iter().enumerate() {
                    let mut acc = 0.0;
                    for (ci, &j) in my_cols.iter().enumerate() {
                        acc += a.read(ctx, Index2(i, j), |v| *v) * t_seg[ci];
                    }
                    ctx.charge_flops(2 * my_cols.len() as u64);
                    partial[ri] = acc;
                }
            }
            // Phase 3: right-to-left chain across thread-grid columns.
            for g in (0..tg1).rev() {
                if in_grid && my_tc == g {
                    let inflow = if g + 1 < tg1 {
                        chain.read(ctx, Index2(my_tr, g + 1), |v| v.clone())
                    } else {
                        vec![0.0; rows_per_group]
                    };
                    chain.write(ctx, Index2(my_tr, g), |sums| {
                        for ri in 0..rows_per_group {
                            sums[ri] = partial[ri] + inflow[ri];
                        }
                    });
                    ctx.charge_flops(rows_per_group as u64);
                }
                ctx.barrier().await;
            }
            // Phase 4: the owners of column k store the row totals.
            if in_grid && col_group[k] == my_tc {
                let totals = chain.read(ctx, Index2(my_tr, 0), |v| v.clone());
                for (ri, &i) in my_rows.iter().enumerate() {
                    c.write(ctx, Index2(i, k), |v| *v = totals[ri]);
                }
            }
            ctx.barrier().await;
        }
    });

    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            out[i * n + j] = c.peek(Index2(i, j), |v| *v);
        }
    }
    (trace, out)
}

/// Direct reference product.
pub fn reference(n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += a_entry(i, j) * b_entry(j, k);
            }
            out[i * n + k] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_distribution_multiplies_correctly() {
        let n = 8;
        let expected = reference(n);
        for dist in nine_distributions() {
            for threads in [1, 4] {
                let cfg = MatmulConfig { n, dist };
                let (_, got) = run(threads, &cfg);
                assert_eq!(got, expected, "dist {dist:?} threads {threads}");
            }
        }
    }

    #[test]
    fn non_square_thread_counts_work() {
        let n = 8;
        let expected = reference(n);
        for dist in nine_distributions() {
            let cfg = MatmulConfig { n, dist };
            let (_, got) = run(8, &cfg);
            assert_eq!(got, expected, "dist {dist:?}");
        }
    }

    #[test]
    fn broadcast_is_bulk_segments() {
        let n = 16;
        let (trace, _) = run(
            4,
            &MatmulConfig {
                n,
                dist: (Dist1::Block, Dist1::Block),
            },
        );
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        // Per k each thread does at most 1 broadcast fetch + 1 chain read
        // + 1 total read: far fewer than one event per matrix cell.
        let per_thread_events = stats.thread(extrap_time::ThreadId(0)).remote_reads as usize;
        assert!(
            per_thread_events <= 3 * n,
            "expected bulk transfers, got {per_thread_events}"
        );
        // Segments carry 8 doubles = 64 bytes.
        assert!(stats.total_actual_bytes() >= (n as u64) * 64);
    }

    #[test]
    fn distribution_changes_communication_not_results() {
        let n = 8;
        let mk = |dist| {
            let (trace, _) = run(4, &MatmulConfig { n, dist });
            let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
            extrap_trace::TraceStats::from_set(&ts).total_remote_accesses()
        };
        let bb = mk((Dist1::Block, Dist1::Block));
        let ww = mk((Dist1::Whole, Dist1::Whole));
        // (W,W) piles everything on thread 0: no remote element traffic,
        // all the time on one thread; distributed versions communicate.
        assert!(bb > 0);
        assert_eq!(ww, 0);
    }

    #[test]
    fn whole_whole_serializes_compute() {
        let n = 8;
        let (trace, _) = run(
            4,
            &MatmulConfig {
                n,
                dist: (Dist1::Whole, Dist1::Whole),
            },
        );
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        assert!(stats.thread(extrap_time::ThreadId(0)).compute.as_ns() > 0);
        for t in 1..4 {
            assert_eq!(stats.thread(extrap_time::ThreadId(t)).compute.as_ns(), 0);
        }
    }
}
