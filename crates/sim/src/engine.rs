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

use crate::heap::{EventEntry, HeapScheduler};
use extrap_time::{DurationNs, TimeNs};
use std::collections::VecDeque;

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
    lane: VecDeque<EventEntry<E>>,
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
            dispatched: 0,
        }
    }

    /// The current simulation time (the timestamp of the last dispatched
    /// event).
    #[inline]
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Number of events dispatched so far (simulator work metric).
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Clears the clock, the queue, and all counters while keeping the
    /// heap and lane allocations, so one engine can be recycled across
    /// many simulations (the sweep engine's per-worker scratch does
    /// exactly this).
    pub fn reset(&mut self) {
        self.now = TimeNs::ZERO;
        self.next_seq = 0;
        self.queue.clear();
        self.lane.clear();
        self.dispatched = 0;
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
        match self.lane.back() {
            Some(last) if at < last.time => self.schedule(at, payload),
            _ => {
                let entry = self.entry(at, payload);
                self.lane.push_back(entry);
            }
        }
    }

    /// Schedules `payload` after `delay` from now.
    pub fn schedule_after(&mut self, delay: DurationNs, payload: E) {
        self.schedule(self.now + delay, payload)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // the driver loop reads naturally as `while eng.next()`
    pub fn next(&mut self) -> Option<(TimeNs, E)> {
        let from_lane = match (self.lane.front(), self.queue.peek_min()) {
            (Some(lane), Some(heap)) => lane.key() < heap.key(),
            (lane, _) => lane.is_some(),
        };
        let entry = if from_lane {
            self.lane.pop_front()
        } else {
            self.queue.pop_min()
        }?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.dispatched += 1;
        Some((entry.time, entry.payload))
    }

    /// The timestamp of the next event, without dispatching it.
    pub fn peek_time(&self) -> Option<TimeNs> {
        let lane = self.lane.front().map(|e| e.time);
        let heap = self.queue.peek_min().map(|e| e.time);
        lane.into_iter().chain(heap).min()
    }

    /// Count of pending events.
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
