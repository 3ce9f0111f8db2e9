//! Collective operations in the pC++ style: master-combine reductions
//! and broadcast, built from the same primitives the benchmarks use
//! (per-thread slots + barriers + remote element accesses), so their
//! costs appear in traces exactly like hand-written code.

use crate::collection::Collection;
use crate::distribution::{Distribution, Index2};
use crate::program::ThreadCtx;

/// Reusable scratch state for scalar collectives over `n` threads.
///
/// One `Collectives` instance may be reused across phases and across
/// different operations; consecutive collectives are race-free (the
/// master only overwrites the result slot after every reader has passed
/// the barrier that follows its read).
pub struct Collectives {
    slots: Collection<f64>,
    result: Collection<f64>,
}

impl Collectives {
    /// Builds the scratch collections for `n_threads`.
    pub fn new(n_threads: usize) -> Collectives {
        Collectives {
            slots: Collection::build(Distribution::block_1d(n_threads, n_threads), |_| 0.0),
            result: Collection::build(Distribution::block_1d(1, n_threads), |_| 0.0),
        }
    }

    /// Generic master-combine reduction with operator `op` (must be
    /// associative and commutative).  Costs 2 barriers and `2(n−1)`
    /// remote accesses.
    pub async fn reduce(
        &self,
        ctx: &mut ThreadCtx<'_>,
        partial: f64,
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let me = ctx.id().index();
        let n = ctx.n_threads();
        self.slots.write(ctx, Index2(me, 0), |v| *v = partial);
        ctx.barrier().await;
        if me == 0 {
            let mut acc = self.slots.read(ctx, Index2(0, 0), |v| *v);
            for t in 1..n {
                let v = self.slots.read(ctx, Index2(t, 0), |v| *v);
                acc = op(acc, v);
                ctx.charge_flops(1);
            }
            self.result.write(ctx, Index2(0, 0), |r| *r = acc);
        }
        ctx.barrier().await;
        self.result.read(ctx, Index2(0, 0), |v| *v)
    }

    /// Global sum.
    pub async fn sum(&self, ctx: &mut ThreadCtx<'_>, partial: f64) -> f64 {
        self.reduce(ctx, partial, |a, b| a + b).await
    }

    /// Global maximum.
    pub async fn max(&self, ctx: &mut ThreadCtx<'_>, partial: f64) -> f64 {
        self.reduce(ctx, partial, f64::max).await
    }

    /// Global minimum.
    pub async fn min(&self, ctx: &mut ThreadCtx<'_>, partial: f64) -> f64 {
        self.reduce(ctx, partial, f64::min).await
    }

    /// Broadcast from `root`: every other thread remote-reads the value
    /// (1 barrier, `n−1` remote reads of the root's slot).
    pub async fn broadcast(&self, ctx: &mut ThreadCtx<'_>, root: usize, value: f64) -> f64 {
        let me = ctx.id().index();
        if me == root {
            self.slots.write(ctx, Index2(root, 0), |v| *v = value);
        }
        ctx.barrier().await;
        self.slots.read(ctx, Index2(root, 0), |v| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WorkModel;
    use crate::program::Program;
    use std::cell::RefCell;

    fn run_collect(n: usize, f: impl AsyncFn(&mut ThreadCtx<'_>, &Collectives) -> f64) -> Vec<f64> {
        let coll = Collectives::new(n);
        let out = RefCell::new(vec![0.0; n]);
        Program::new(n)
            .with_work_model(WorkModel::unit())
            .run(async |ctx| {
                let v = f(ctx, &coll).await;
                out.borrow_mut()[ctx.id().index()] = v;
            });
        out.into_inner()
    }

    #[test]
    fn sum_reduces_across_threads() {
        let got = run_collect(5, async |ctx, c| c.sum(ctx, (ctx.id().0 + 1) as f64).await);
        assert_eq!(got, vec![15.0; 5]);
    }

    #[test]
    fn max_and_min() {
        let got = run_collect(4, async |ctx, c| c.max(ctx, ctx.id().0 as f64 * 2.0).await);
        assert_eq!(got, vec![6.0; 4]);
        let got = run_collect(4, async |ctx, c| c.min(ctx, 10.0 - ctx.id().0 as f64).await);
        assert_eq!(got, vec![7.0; 4]);
    }

    #[test]
    fn broadcast_delivers_roots_value() {
        let got = run_collect(4, async |ctx, c| {
            c.broadcast(ctx, 2, ctx.id().0 as f64 * 100.0).await
        });
        assert_eq!(got, vec![200.0; 4]);
    }

    #[test]
    fn consecutive_collectives_are_race_free() {
        let got = run_collect(4, async |ctx, c| {
            let a = c.sum(ctx, 1.0).await;
            let b = c.sum(ctx, a).await;
            let m = c.max(ctx, b + ctx.id().0 as f64).await;
            c.broadcast(ctx, 0, m).await
        });
        // a = 4, b = 16, m = max(16+id) = 19, broadcast of thread 0's 19.
        assert_eq!(got, vec![19.0; 4]);
    }

    #[test]
    fn reduction_traffic_appears_in_trace() {
        let n = 4;
        let coll = Collectives::new(n);
        let trace = Program::new(n)
            .with_work_model(WorkModel::unit())
            .run(async |ctx| {
                let _ = coll.sum(ctx, 1.0).await;
            });
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        let stats = extrap_trace::TraceStats::from_set(&ts);
        assert_eq!(stats.barriers(), 2);
        // Master reads n-1 slave slots; n-1 slaves read the result.
        assert_eq!(stats.total_remote_accesses(), 2 * (n - 1));
    }

    #[test]
    fn single_thread_collectives_are_trivial() {
        let got = run_collect(1, async |ctx, c| c.sum(ctx, 42.0).await);
        assert_eq!(got, vec![42.0]);
    }
}
