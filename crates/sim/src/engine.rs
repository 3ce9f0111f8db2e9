//! The event queue and simulation clock.
//!
//! Pending events live in two sorted stores that share one `(time, seq)`
//! key and one sequence counter:
//!
//! * an inline-key binary heap ([`crate::heap`]) for arbitrary schedules,
//!   O(log n) per operation;
//! * a FIFO lane, a `VecDeque` that only ever appends entries at or after
//!   its last timestamp, O(1) per operation.
//!
//! [`Engine::schedule_lane`] appends to the lane when the new time keeps
//! it sorted and falls back to the heap otherwise, so the lane is always
//! sorted by `(time, seq)`.  [`Engine::next`] pops whichever front is
//! smaller.  Merging two sorted sequences on the same key yields exactly
//! the order one heap holding every entry would pop, so routing an event
//! through the lane changes its cost and nothing else: tie-breaks (FIFO
//! at equal timestamps) and the dispatch count are identical by
//! construction.
//!
//! # Quiet tick chains
//!
//! A *tick chain* is a periodic lane event: a tick at `t` that, when
//! dispatched, would only re-arm itself at `t + min(interval, end − t)`
//! until the tick at `end`.  The Poll service policy is one chain per
//! computing thread.  [`Engine::schedule_tick`] marks a chain's tick
//! *quiet*; [`Engine::next`] then dispatches it itself — it advances the
//! clock, counts the dispatch and re-arms the tick with a fresh seq,
//! exactly as a caller would — and returns only the chain's final tick,
//! or any tick woken by [`Engine::wake`] first.  When every lane entry
//! is quiet, the lane spans at most one interval and whole rotations
//! fit before the heap's next event, `next` applies `k` rotations at
//! once in O(lane length): the times, seqs, clock and dispatch count
//! come out exactly as `k × lane length` one-by-one dispatches leave
//! them.

use crate::heap::{EventEntry, HeapScheduler};
use extrap_time::{DurationNs, TimeNs};
use std::collections::VecDeque;

/// The chain of a lane entry that belongs to none.
const NO_CHAIN: u32 = u32::MAX;

/// The record seq of a chain with no quiet tick.
const LOUD: u64 = u64::MAX;

/// A lane entry and the tick chain it belongs to, if any.
#[derive(Clone, Copy)]
struct LaneEntry<E> {
    entry: EventEntry<E>,
    chain: u32,
}

/// A tick chain's quiet record: the seq of its quiet lane tick (the
/// generation check — a record never matches any other entry) and the
/// chain's end.
#[derive(Clone, Copy)]
struct Chain {
    seq: u64,
    end: TimeNs,
}

/// A deterministic discrete-event engine over payloads of type `E`.
///
/// The driver loop is owned by the caller:
///
/// ```
/// use extrap_sim::Engine;
/// use extrap_time::{DurationNs, TimeNs};
///
/// let mut eng: Engine<&str> = Engine::new();
/// eng.schedule(TimeNs(30), "c");
/// eng.schedule(TimeNs(10), "a");
/// eng.schedule_after(DurationNs(10), "b"); // now = 0, so fires at 10 too
/// let mut order = Vec::new();
/// while let Some((t, e)) = eng.next() {
///     order.push((t.as_ns(), e));
/// }
/// assert_eq!(order, vec![(10, "a"), (10, "b"), (30, "c")]);
/// ```
pub struct Engine<E> {
    now: TimeNs,
    next_seq: u64,
    queue: HeapScheduler<E>,
    lane: VecDeque<LaneEntry<E>>,
    /// Quiet records, indexed by chain.
    chains: Vec<Chain>,
    /// Number of lane entries that are quiet ticks.
    quiet: usize,
    tick_interval: DurationNs,
    dispatched: u64,
}

impl<E: Copy> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

// Payloads are `Copy`: simulator events are small value types, and the
// bound lets the heap move elements hole-style (one write per
// level) like `std::collections::BinaryHeap`.
impl<E: Copy> Engine<E> {
    /// Creates an engine with the clock at zero and an empty queue.
    pub fn new() -> Engine<E> {
        Engine {
            now: TimeNs::ZERO,
            next_seq: 0,
            queue: HeapScheduler::new(),
            lane: VecDeque::new(),
            chains: Vec::new(),
            quiet: 0,
            tick_interval: DurationNs::ZERO,
            dispatched: 0,
        }
    }

    /// The current simulation time (the timestamp of the last dispatched
    /// event).
    #[inline]
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Number of events dispatched so far (simulator work metric),
    /// quiet ticks included.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Clears the clock, the queue, the tick interval and all counters
    /// while keeping the heap, lane and chain allocations, so one engine
    /// can be recycled across many simulations (the sweep engine's
    /// per-worker scratch does exactly this).
    pub fn reset(&mut self) {
        self.now = TimeNs::ZERO;
        self.next_seq = 0;
        self.queue.clear();
        self.lane.clear();
        self.chains.clear();
        self.quiet = 0;
        self.tick_interval = DurationNs::ZERO;
        self.dispatched = 0;
    }

    /// Sets the period of every tick chain (see
    /// [`schedule_tick`](Self::schedule_tick)).
    pub fn set_tick_interval(&mut self, interval: DurationNs) {
        self.tick_interval = interval;
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — schedules must never
    /// rewind the clock.
    pub fn schedule(&mut self, at: TimeNs, payload: E) {
        let entry = self.entry(at, payload);
        self.queue.push(entry);
    }

    /// Schedules `payload` at absolute time `at` through the FIFO lane:
    /// O(1) when `at` is no earlier than the lane's last entry, and a
    /// plain [`schedule`](Self::schedule) otherwise.  Dispatch order is
    /// the same either way; the lane pays off for event streams whose
    /// times mostly come in non-decreasing order.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_lane(&mut self, at: TimeNs, payload: E) {
        self.push_lane(at, payload, NO_CHAIN);
    }

    /// Schedules `payload` at `at` through the lane as the next tick of
    /// the quiet chain `chain`, which ends at `end`.  Chain ids index a
    /// dense table, so keep them small (core uses thread indices).
    ///
    /// Until [`wake`](Self::wake)`(chain)`, [`next`](Self::next) handles
    /// the tick itself: a tick at `t < end` is dispatched, counted and
    /// re-armed with the same payload at `t + min(interval, end − t)`,
    /// the way [`schedule_lane`](Self::schedule_lane) would take it.
    /// Only the tick at `end` is returned.  The caller promises that such
    /// a dispatch would do nothing else.  A tick that falls back to the
    /// heap is an ordinary, loud event.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past or after `end`, or if no
    /// tick interval is set.
    pub fn schedule_tick(&mut self, at: TimeNs, payload: E, chain: u32, end: TimeNs) {
        assert!(at <= end, "tick at {at:?} after its chain's end {end:?}");
        assert!(!self.tick_interval.is_zero(), "no tick interval set");
        let c = chain as usize;
        if c >= self.chains.len() {
            self.chains.resize(c + 1, Chain { seq: LOUD, end });
        }
        debug_assert_eq!(self.chains[c].seq, LOUD, "chain {chain} already ticks");
        if let Some(seq) = self.push_lane(at, payload, chain) {
            self.chains[c] = Chain { seq, end };
            self.quiet += 1;
        }
    }

    /// Makes the pending tick of `chain`, if quiet, loud: [`next`](Self::next)
    /// returns it to the caller.  Call it when the chain's next tick has
    /// work to do.
    pub fn wake(&mut self, chain: u32) {
        if let Some(c) = self.chains.get_mut(chain as usize) {
            if c.seq != LOUD {
                c.seq = LOUD;
                self.quiet -= 1;
            }
        }
    }

    /// Schedules `payload` after `delay` from now.
    pub fn schedule_after(&mut self, delay: DurationNs, payload: E) {
        self.schedule(self.now + delay, payload)
    }

    /// Pops the next event that is not a quiet tick, advancing the clock
    /// to its timestamp.  Quiet ticks due before it are dispatched on the
    /// way.
    #[allow(clippy::should_implement_trait)] // the driver loop reads naturally as `while eng.next()`
    pub fn next(&mut self) -> Option<(TimeNs, E)> {
        if self.quiet > 0 {
            self.dispatch_quiet();
        }
        let from_lane = match (self.lane.front(), self.queue.peek_min()) {
            (Some(lane), Some(heap)) => lane.entry.key() < heap.key(),
            (lane, _) => lane.is_some(),
        };
        let entry = if from_lane {
            self.lane.pop_front().map(|e| e.entry)
        } else {
            self.queue.pop_min()
        }?;
        Some(self.dispatch(entry))
    }

    /// The timestamp of the next pending event, quiet tick or not,
    /// without dispatching it.
    pub fn peek_time(&self) -> Option<TimeNs> {
        let lane = self.lane.front().map(|e| e.entry.time);
        let heap = self.queue.peek_min().map(|e| e.time);
        lane.into_iter().chain(heap).min()
    }

    /// Count of pending events, quiet ticks included.
    pub fn len(&self) -> usize {
        self.queue.len() + self.lane.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stamps a new entry with the next sequence number.
    fn entry(&mut self, at: TimeNs, payload: E) -> EventEntry<E> {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        EventEntry {
            time: at,
            seq,
            payload,
        }
    }

    /// Appends to the lane, returning the entry's seq, or falls back to
    /// the heap and returns `None`.
    #[inline]
    fn push_lane(&mut self, at: TimeNs, payload: E, chain: u32) -> Option<u64> {
        if matches!(self.lane.back(), Some(last) if at < last.entry.time) {
            self.schedule(at, payload);
            return None;
        }
        let entry = self.entry(at, payload);
        self.lane.push_back(LaneEntry { entry, chain });
        Some(entry.seq)
    }

    /// Dispatches quiet ticks while one is the next event, a whole
    /// rotation at a time where [`rotate`](Self::rotate) allows.  A
    /// chain's final tick turns loud and is left for the caller.
    fn dispatch_quiet(&mut self) {
        while self.quiet > 0 {
            if self.quiet == self.lane.len() {
                self.rotate();
            }
            let Some(&LaneEntry { entry, chain }) = self.lane.front() else {
                return;
            };
            if matches!(self.queue.peek_min(), Some(heap) if heap.key() < entry.key()) {
                return;
            }
            // The generation check: only the chain's recorded tick is quiet.
            let Some(&Chain { end, .. }) = self
                .chains
                .get(chain as usize)
                .filter(|c| c.seq == entry.seq)
            else {
                return;
            };
            self.chains[chain as usize].seq = LOUD;
            self.quiet -= 1;
            if entry.time == end {
                return;
            }
            self.lane.pop_front();
            let (t, payload) = self.dispatch(entry);
            let at = t + self.tick_interval.min(end.since(t));
            self.schedule_tick(at, payload, chain, end);
        }
    }

    #[inline]
    fn dispatch(&mut self, entry: EventEntry<E>) -> (TimeNs, E) {
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.dispatched += 1;
        (entry.time, entry.payload)
    }

    /// Applies `k ≥ 1` whole rotations of an all-quiet lane at once,
    /// when they are exactly what one-by-one dispatch would do.
    ///
    /// With the lane spanning at most one interval, popping the front
    /// tick and re-arming it one interval later appends it behind the
    /// back, so one rotation pops every entry once, in lane order, and
    /// leaves the lane in the same order one interval later with `m`
    /// fresh seqs.  That holds for `k` rotations as long as every popped
    /// tick comes strictly before the heap's minimum (a heap entry at
    /// the same instant may carry a smaller seq) and every chain stays
    /// regular (`t + k·interval ≤ end`).
    fn rotate(&mut self) {
        let (Some(front), Some(back)) = (self.lane.front(), self.lane.back()) else {
            return;
        };
        let (front, back) = (front.entry.time.0, back.entry.time.0);
        let interval = self.tick_interval.0;
        if back > front.saturating_add(interval) {
            return;
        }
        // The last tick of rotation `k` pops at `back + (k − 1)·interval`.
        let mut k = match self.queue.peek_min() {
            Some(heap) if heap.time.0 <= back => return,
            Some(heap) => (heap.time.0 - back).div_ceil(interval),
            // Bounds `k × m` far from overflow; the chain ends bound it
            // in practice.
            None => u64::from(u32::MAX),
        };
        for e in &self.lane {
            let end = self.chains[e.chain as usize].end.0;
            k = k.min((end - e.entry.time.0) / interval);
            if k == 0 {
                return;
            }
        }
        let m = self.lane.len() as u64;
        let base = self.next_seq + (k - 1) * m;
        for (i, e) in (0..).zip(self.lane.iter_mut()) {
            e.entry.time.0 += k * interval;
            e.entry.seq = base + i;
            self.chains[e.chain as usize].seq = e.entry.seq;
        }
        self.next_seq += k * m;
        self.dispatched += k * m;
        self.now = TimeNs(back + (k - 1) * interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_at_equal_times() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(TimeNs(5), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering_wins_over_insertion() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(TimeNs(100), "late");
        eng.schedule(TimeNs(1), "early");
        assert_eq!(eng.next().unwrap().1, "early");
        assert_eq!(eng.next().unwrap().1, "late");
        assert_eq!(eng.now(), TimeNs(100));
    }

    #[test]
    fn lane_and_heap_ties_pop_in_schedule_order() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(TimeNs(5), "heap-0");
        eng.schedule_lane(TimeNs(5), "lane-1");
        eng.schedule(TimeNs(5), "heap-2");
        eng.schedule_lane(TimeNs(5), "lane-3");
        let got: Vec<&str> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(got, ["heap-0", "lane-1", "heap-2", "lane-3"]);
    }

    #[test]
    fn lane_falls_back_to_the_heap_when_time_goes_backwards() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule_lane(TimeNs(10), "a");
        eng.schedule_lane(TimeNs(30), "c");
        eng.schedule_lane(TimeNs(20), "b"); // earlier than the lane's tail
        assert_eq!(eng.lane.len(), 2);
        assert_eq!(eng.len(), 3);
        assert_eq!(eng.peek_time(), Some(TimeNs(10)));
        let got: Vec<(u64, &str)> =
            std::iter::from_fn(|| eng.next().map(|(t, e)| (t.as_ns(), e))).collect();
        assert_eq!(got, [(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(10), 1);
        eng.next();
        eng.schedule(TimeNs(5), 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn lane_scheduling_into_past_panics() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(10), 1);
        eng.next();
        eng.schedule_lane(TimeNs(5), 2);
    }

    #[test]
    fn peek_sees_both_stores() {
        let mut eng: Engine<u8> = Engine::new();
        assert_eq!(eng.peek_time(), None);
        eng.schedule_lane(TimeNs(2), 2);
        eng.schedule(TimeNs(1), 1);
        assert_eq!(eng.peek_time(), Some(TimeNs(1)));
        assert_eq!(eng.next(), Some((TimeNs(1), 1)));
        assert_eq!(eng.peek_time(), Some(TimeNs(2)));
        assert_eq!(eng.next(), Some((TimeNs(2), 2)));
        assert_eq!(eng.peek_time(), None);
        assert!(eng.is_empty());
        assert_eq!(eng.dispatched(), 2);
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(100), 1);
        eng.next();
        eng.schedule_after(DurationNs(50), 2);
        assert_eq!(eng.next(), Some((TimeNs(150), 2)));
    }

    #[test]
    fn reset_recycles_the_engine() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule(TimeNs(10), 1);
        eng.schedule_lane(TimeNs(20), 2);
        eng.next();
        eng.reset();
        assert_eq!(eng.now(), TimeNs::ZERO);
        assert_eq!(eng.dispatched(), 0);
        assert_eq!(eng.len(), 0);
        // A full re-run behaves exactly like a fresh engine.
        eng.schedule_lane(TimeNs(5), 7);
        assert_eq!(eng.next(), Some((TimeNs(5), 7)));
    }

    #[test]
    fn interleaved_schedule_and_dispatch_is_deterministic() {
        // Two identical runs produce identical dispatch sequences.
        let run = || {
            let mut eng: Engine<u64> = Engine::new();
            let mut out = Vec::new();
            for i in 0..50u64 {
                eng.schedule(TimeNs(i % 7), i);
            }
            while let Some((t, e)) = eng.next() {
                out.push((t, e));
                if e % 5 == 0 && out.len() < 100 {
                    eng.schedule_after(DurationNs(3), e + 1000);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
