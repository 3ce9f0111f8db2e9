//! Property tests of the event queue: random interleavings of heap
//! schedules, lane schedules (including lane times that go backwards and
//! equal-time ties between the lane and the heap), dispatches and peeks
//! must pop in exactly the order a naive sorted-vec reference model
//! produces.
//!
//! Driven by a deterministic SplitMix64 case generator instead of
//! `proptest` (crates.io is unreachable in the build environment).

use extrap_sim::{Engine, SplitMix64};
use extrap_time::TimeNs;

const CASES: u64 = 64;
const STEPS: usize = 400;

/// The naive reference model: a flat vector of `(time, seq, payload)`
/// scanned linearly for the minimum on every pop.  It has one store, so
/// it knows nothing of the engine's lane: agreement shows the lane never
/// changes the dispatch order.
#[derive(Default)]
struct NaiveQueue {
    now: u64,
    next_seq: u64,
    pending: Vec<(u64, u64, u32)>,
}

impl NaiveQueue {
    fn schedule(&mut self, at: u64, payload: u32) {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
    }

    fn next(&mut self) -> Option<(u64, u32)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(time, seq, _))| (time, seq))
            .map(|(i, _)| i)?;
        let (time, _, payload) = self.pending.remove(i);
        self.now = time;
        Some((time, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending
            .iter()
            .min_by_key(|&&(time, seq, _)| (time, seq))
            .map(|&(time, _, _)| time)
    }
}

fn for_all(seed: u64, mut check: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        check(&mut rng);
    }
}

/// A delay mixing dense ties, mid-range spreads, and rare huge jumps.
fn delay(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(16) {
        // Dense: lots of collisions and small gaps.
        0..=11 => rng.next_below(50),
        // Mid-range spread.
        12..=14 => rng.next_below(100_000),
        // Rare huge jump: sparse far horizon.
        _ => rng.next_below(1 << 40),
    }
}

/// Pops both queues dry; the tails must agree element-for-element.
fn drain_both(eng: &mut Engine<u32>, naive: &mut NaiveQueue) {
    loop {
        let want = naive.next();
        assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), want);
        if want.is_none() {
            break;
        }
    }
    assert_eq!(eng.len(), 0);
    assert!(eng.is_empty());
}

/// Drives a random heap-schedule / lane-schedule / dispatch / peek
/// interleaving through the engine and the naive model simultaneously,
/// asserting they agree at every step.
fn model_interleaving(rng: &mut SplitMix64) {
    let mut eng: Engine<u32> = Engine::new();
    let mut naive = NaiveQueue::default();
    // The time of the last lane schedule: lane schedules usually move
    // forward from it (the poll-tick pattern), sometimes repeat it
    // exactly (ties within the lane) and sometimes go backwards (the
    // heap fallback).
    let mut lane_tail = 0u64;
    let mut payload = 0u32;

    for _ in 0..STEPS {
        match rng.next_below(10) {
            // ~30%: heap schedule at now + random delay (0 allowed —
            // equal-time FIFO ordering is part of the contract).
            0..=2 => {
                let at = naive.now + delay(rng);
                payload += 1;
                eng.schedule(TimeNs(at), payload);
                naive.schedule(at, payload);
            }
            // ~30%: lane schedule.
            3..=5 => {
                let at = match rng.next_below(8) {
                    // Forward from the lane's tail.
                    0..=3 => lane_tail.max(naive.now) + rng.next_below(50),
                    // Exactly at the tail: a lane-internal tie.
                    4 => lane_tail.max(naive.now),
                    // Backwards (when the clock allows): heap fallback.
                    5 => naive.now + rng.next_below(lane_tail.saturating_sub(naive.now) + 1),
                    // At the time of the next pending event, wherever it
                    // lives: a lane/heap tie.
                    6 => naive.peek_time().unwrap_or(naive.now),
                    // Anywhere from now.
                    _ => naive.now + delay(rng),
                };
                lane_tail = lane_tail.max(at);
                payload += 1;
                eng.schedule_lane(TimeNs(at), payload);
                naive.schedule(at, payload);
            }
            // ~30%: dispatch one event.
            6..=8 => {
                assert_eq!(eng.peek_time().map(TimeNs::as_ns), naive.peek_time());
                assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), naive.next());
            }
            // ~10%: check the pending-event count invariant.
            _ => {
                assert_eq!(eng.len(), naive.pending.len());
                assert_eq!(eng.is_empty(), naive.pending.is_empty());
            }
        }
    }

    drain_both(&mut eng, &mut naive);
}

#[test]
fn random_interleavings_match_the_naive_reference_model() {
    for_all(0x51AB, model_interleaving);
}

#[test]
fn dispatch_counts_match_the_model() {
    // `dispatched` is a published simulator-cost metric; the lane must
    // count exactly the events the model pops.
    for_all(0xC0DE, |rng| {
        let mut eng: Engine<u32> = Engine::new();
        let mut naive = NaiveQueue::default();
        for i in 0..200u32 {
            let at = naive.now + rng.next_below(30);
            if rng.next_below(2) == 0 {
                eng.schedule_lane(TimeNs(at), i);
            } else {
                eng.schedule(TimeNs(at), i);
            }
            naive.schedule(at, i);
            if rng.next_below(3) == 0 {
                assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), naive.next());
            }
        }
        drain_both(&mut eng, &mut naive);
        assert_eq!(eng.dispatched(), 200);
    });
}

#[test]
fn reused_engines_still_match_the_model() {
    // The sweep scratch recycles one engine across many simulations via
    // reset; a recycled engine must behave exactly like a fresh one.
    let mut eng: Engine<u32> = Engine::new();
    for_all(0x7E57, |rng| {
        eng.reset();
        let mut naive = NaiveQueue::default();
        let mut payload = 0u32;
        for _ in 0..100 {
            match rng.next_below(3) {
                0 => {
                    assert_eq!(eng.next().map(|(t, p)| (t.as_ns(), p)), naive.next());
                }
                lane => {
                    let at = naive.now + rng.next_below(1000);
                    payload += 1;
                    if lane == 1 {
                        eng.schedule_lane(TimeNs(at), payload);
                    } else {
                        eng.schedule(TimeNs(at), payload);
                    }
                    naive.schedule(at, payload);
                }
            }
        }
        // Half the cases leave events pending, so the next reset has
        // work to do.
        if rng.next_below(2) == 0 {
            drain_both(&mut eng, &mut naive);
        }
    });
}

#[test]
fn dispatch_order_is_stable_across_identical_runs() {
    let run = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let mut eng: Engine<u64> = Engine::new();
        let mut out = Vec::new();
        for i in 0..200u64 {
            eng.schedule(TimeNs(rng.next_below(40)), i);
        }
        while let Some((t, e)) = eng.next() {
            out.push((t, e));
            if e % 3 == 0 && out.len() < 400 {
                let at = TimeNs(t.as_ns() + rng.next_below(20));
                if e % 2 == 0 {
                    eng.schedule_lane(at, e + 10_000);
                } else {
                    eng.schedule(at, e + 10_000);
                }
            }
        }
        out
    };
    assert_eq!(run(0xDEAD), run(0xDEAD));
    assert_ne!(run(0xDEAD), run(0xBEEF), "different seeds diverge");
}
