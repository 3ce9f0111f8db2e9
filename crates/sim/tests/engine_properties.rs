//! Property tests of the event queue: random interleavings of heap
//! schedules, lane schedules (including lane times that go backwards and
//! equal-time ties between the lane and the heap), dispatches and peeks
//! must pop in exactly the order a naive sorted-vec reference model
//! produces.  Quiet tick chains, which the queue dispatches and
//! fast-forwards itself, must leave exactly what popping and re-arming
//! every tick one at a time leaves.
//!
//! Driven by a deterministic SplitMix64 case generator instead of
//! `proptest` (crates.io is unreachable in the build environment).

use extrap_sim::{Engine, SplitMix64};
use extrap_time::{DurationNs, TimeNs};

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

/// Payloads at or above this are ticks of chain `payload - TICK`.
const TICK: u32 = 1 << 20;

/// One pending entry of [`TickModel`].
#[derive(Clone, Copy)]
struct ModelEntry {
    time: u64,
    seq: u64,
    payload: u32,
    /// Appended to the lane (ticks only; a tick behind the lane's last
    /// entry falls back to the heap, like in the engine).
    in_lane: bool,
}

/// The reference model of tick chains: one flat store, and every quiet
/// tick popped and re-armed one at a time, the way a caller of a plain
/// queue would.
#[derive(Default)]
struct TickModel {
    interval: u64,
    now: u64,
    next_seq: u64,
    dispatched: u64,
    pending: Vec<ModelEntry>,
    /// Per chain: `(end, quiet)`.
    chains: Vec<(u64, bool)>,
}

impl TickModel {
    fn push(&mut self, time: u64, payload: u32, in_lane: bool) {
        assert!(time >= self.now);
        self.pending.push(ModelEntry {
            time,
            seq: self.next_seq,
            payload,
            in_lane,
        });
        self.next_seq += 1;
    }

    fn schedule(&mut self, at: u64, payload: u32) {
        self.push(at, payload, false);
    }

    fn schedule_tick(&mut self, at: u64, chain: u32, end: u64) {
        let lane_back = self
            .pending
            .iter()
            .filter(|e| e.in_lane)
            .map(|e| e.time)
            .max();
        let in_lane = lane_back.is_none_or(|back| at >= back);
        self.chains[chain as usize] = (end, in_lane);
        self.push(at, TICK + chain, in_lane);
    }

    fn wake(&mut self, chain: u32) {
        self.chains[chain as usize].1 = false;
    }

    fn next(&mut self) -> Option<(u64, u32)> {
        loop {
            let i = (0..self.pending.len()).min_by_key(|&i| {
                let e = &self.pending[i];
                (e.time, e.seq)
            })?;
            let e = self.pending.remove(i);
            self.now = e.time;
            self.dispatched += 1;
            if e.payload >= TICK && e.in_lane {
                let chain = e.payload - TICK;
                let (end, quiet) = self.chains[chain as usize];
                if quiet {
                    self.chains[chain as usize].1 = false;
                    if e.time < end {
                        let at = e.time + self.interval.min(end - e.time);
                        self.schedule_tick(at, chain, end);
                        continue;
                    }
                }
            }
            return Some((e.time, e.payload));
        }
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|e| e.time).min()
    }
}

/// The engine and the tick model side by side: both get the same
/// schedules, wakes and pops, and every tick handed back is answered
/// the way the Poll policy's tick handler does.
struct TickPair {
    eng: Engine<u32>,
    model: TickModel,
    /// Per chain: the end of its running compute segment, if any.
    active: Vec<Option<u64>>,
    payload: u32,
}

impl TickPair {
    fn new(interval: u64, chains: usize) -> TickPair {
        let mut eng = Engine::new();
        eng.set_tick_interval(DurationNs(interval));
        TickPair {
            eng,
            model: TickModel {
                interval,
                chains: vec![(0, false); chains],
                ..TickModel::default()
            },
            active: vec![None; chains],
            payload: 0,
        }
    }

    fn interval(&self) -> u64 {
        self.model.interval
    }

    fn schedule(&mut self, at: u64) {
        self.payload += 1;
        self.eng.schedule(TimeNs(at), self.payload);
        self.model.schedule(at, self.payload);
    }

    /// Starts chain `c`'s compute segment of length `d` at `start`.
    fn start(&mut self, c: usize, start: u64, d: u64) {
        let first = start + self.interval().min(d);
        self.arm(c, first, start + d);
    }

    fn arm(&mut self, c: usize, at: u64, end: u64) {
        self.active[c] = Some(end);
        let payload = TICK + c as u32;
        self.eng
            .schedule_tick(TimeNs(at), payload, c as u32, TimeNs(end));
        self.model.schedule_tick(at, c as u32, end);
    }

    fn wake(&mut self, c: usize) {
        self.eng.wake(c as u32);
        self.model.wake(c as u32);
    }

    /// Pops one event from both queues; they must agree on it, on the
    /// clock and on the dispatch count.  A woken tick is serviced for
    /// `service` and re-armed after it, as the Poll handler does.
    fn pop(&mut self, service: u64) -> Option<(u64, u32)> {
        let got = self.eng.next().map(|(t, p)| (t.as_ns(), p));
        let want = self.model.next();
        assert_eq!(got, want);
        assert_eq!(self.eng.now().as_ns(), self.model.now);
        assert_eq!(self.eng.dispatched(), self.model.dispatched);
        let (t, payload) = want?;
        if payload >= TICK {
            let c = (payload - TICK) as usize;
            let end = self.active[c].expect("tick of a running chain");
            if t == end {
                self.active[c] = None;
            } else {
                let at = t + service + self.interval().min(end - t);
                self.arm(c, at, end + service);
            }
        }
        Some((t, payload))
    }
}

/// Random mixes of heap events and quiet or woken tick chains on an
/// interval grid, so chains start together, ends and heap events land
/// exactly on rotation boundaries, serviced ticks re-arm late (the lane
/// then spans more than one interval) and wakes hit chains anywhere in
/// the lane.  Every pop must match the one-tick-at-a-time model.
fn tick_chains(rng: &mut SplitMix64) {
    let interval = [1, 2, 4, 10][rng.next_below(4) as usize];
    let chains = 1 + rng.next_below(12) as usize;
    let mut d = TickPair::new(interval, chains);
    // A duration that is often a whole number of intervals.
    let span = |rng: &mut SplitMix64| match rng.next_below(3) {
        0 => rng.next_below(4 * interval),
        _ => interval * rng.next_below(60),
    };
    // The first grid instant (a multiple of the interval) at or after `t`.
    let grid = |t: u64| t.div_ceil(interval) * interval;
    for _ in 0..STEPS {
        let now = d.model.now;
        match rng.next_below(20) {
            // Heap events: on the grid, whole rotations after a pending
            // event, at the next pending instant, or anywhere.
            0..=3 => {
                let at = match rng.next_below(4) {
                    0 => grid(now) + interval * rng.next_below(40),
                    1 => match d.model.pending.len() as u64 {
                        0 => now,
                        n => {
                            let e = d.model.pending[rng.next_below(n) as usize];
                            e.time + interval * rng.next_below(8)
                        }
                    },
                    2 => d.model.peek_time().unwrap_or(now),
                    _ => now + span(rng),
                };
                d.schedule(at);
            }
            // Start idle chains, often several at the same instant and
            // on the grid.
            4..=7 => {
                let start = match rng.next_below(3) {
                    0 => now + rng.next_below(3 * interval),
                    _ => grid(now),
                };
                let len = span(rng).max(1) + rng.next_below(2);
                for c in 0..chains {
                    if d.active[c].is_none() && rng.next_below(2) == 0 {
                        d.start(c, start, len);
                    }
                }
            }
            // Wake one running chain, wherever its tick sits.
            8..=9 => {
                let c = rng.next_below(chains as u64) as usize;
                if d.active[c].is_some() {
                    d.wake(c);
                }
            }
            // Pop; a woken tick is serviced for a random time.
            10..=18 => {
                let service = rng.next_below(2) * rng.next_below(3 * interval);
                d.pop(service);
            }
            _ => {
                assert_eq!(d.eng.len(), d.model.pending.len());
                assert_eq!(d.eng.peek_time().map(TimeNs::as_ns), d.model.peek_time());
            }
        }
    }
    while d.pop(rng.next_below(2)).is_some() {}
    assert!(d.eng.is_empty());
    assert!(d.active.iter().all(Option::is_none));
}

#[test]
fn tick_chains_match_the_one_tick_at_a_time_model() {
    for_all(0x71C5, tick_chains);
}

#[test]
fn quiet_rotations_are_fast_forwarded_exactly() {
    // Eight chains start together at 0 and end together at 1000: with
    // a heap event at 500 the queue must hand back exactly that event
    // with the clock and count of 8 × 49 dispatched ticks before it,
    // then the eight final ticks.
    let mut d = TickPair::new(10, 8);
    for c in 0..8 {
        d.start(c, 0, 1_000);
    }
    d.schedule(500);
    assert_eq!(d.pop(0), Some((500, 1)));
    assert_eq!(d.eng.dispatched(), 8 * 49 + 1);
    for c in 0..8 {
        assert_eq!(d.pop(0), Some((1_000, TICK + c)));
    }
    assert_eq!(d.eng.dispatched(), 8 * 100 + 1);
    assert_eq!(d.pop(0), None);
}
