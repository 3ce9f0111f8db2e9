//! The event queue and simulation clock.
//!
//! The engine layers a simulation clock and O(1) token cancellation on
//! top of an inline-key binary heap of pending events ([`crate::heap`]),
//! which pops in `(time, seq)` order — FIFO at equal timestamps.
//!
//! Cancellation state lives in a tiny slab of per-event `gen` + flag
//! records addressed by recycled slot indices.  Cancelling flags the
//! slot and goes through no queue surgery and no side table; cancelled
//! entries are purged lazily when they surface at the front, so the
//! per-pop cost is a flag check instead of the `HashSet` probe the
//! first implementation paid on every event.  Tokens are
//! generation-stamped: a slot's generation is bumped whenever its event
//! fires or is cancelled, so stale tokens can never cancel a recycled
//! slot.

use crate::heap::{EventEntry, HeapScheduler};
use extrap_time::{DurationNs, TimeNs};

/// A handle to a scheduled event, usable to cancel it before it fires.
///
/// Tokens are generation-stamped: once the event fires or is cancelled
/// the token goes stale, and cancelling a stale token is a `false` no-op
/// even if its slab slot has been reused by a later event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

#[cfg(test)]
impl EventToken {
    /// Test-only constructor for forging tokens.
    fn forged(slot: u32, gen: u32) -> EventToken {
        EventToken { slot, gen }
    }
}

/// Per-event cancellation state, one per outstanding queue entry.  Slots
/// are recycled through a free list once their entry leaves the queue;
/// the generation stamp stales every token handed out for the slot's
/// previous occupants.
struct Slot {
    gen: u32,
    cancelled: bool,
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
    slots: Vec<Slot>,
    free: Vec<u32>,
    queue: HeapScheduler<E>,
    live: usize,
    tombstones: usize,
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
            slots: Vec::new(),
            free: Vec::new(),
            queue: HeapScheduler::new(),
            live: 0,
            tombstones: 0,
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
    /// slab/queue allocations, so one engine can be recycled across many
    /// simulations (the sweep engine's per-worker scratch does exactly
    /// this).
    pub fn reset(&mut self) {
        self.now = TimeNs::ZERO;
        self.next_seq = 0;
        self.slots.clear();
        self.free.clear();
        self.queue.clear();
        self.live = 0;
        self.tombstones = 0;
        self.dispatched = 0;
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — schedules must never
    /// rewind the clock.
    pub fn schedule(&mut self, at: TimeNs, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.cancelled = false;
                (slot, s.gen)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exhausted u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                });
                (slot, 0)
            }
        };
        self.live += 1;
        self.queue.push(EventEntry {
            time: at,
            seq,
            slot,
            payload,
        });
        EventToken { slot, gen }
    }

    /// Schedules `payload` after `delay` from now.
    pub fn schedule_after(&mut self, delay: DurationNs, payload: E) -> EventToken {
        self.schedule(self.now + delay, payload)
    }

    /// Cancels a scheduled event in O(1).  Returns `true` if the event
    /// had not yet fired (or been cancelled); tokens of already-fired
    /// events are stale and report `false` without leaving any residue.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        // A matching generation means the token's event is still pending:
        // firing, cancelling, and recycling all bump the stamp, and a new
        // token is only handed out (with the bumped stamp) once the slot
        // is occupied again.
        if slot.gen != token.gen {
            return false;
        }
        debug_assert!(!slot.cancelled);
        slot.cancelled = true;
        slot.gen = slot.gen.wrapping_add(1);
        self.live -= 1;
        self.tombstones += 1;
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // the driver loop reads naturally as `while eng.next()`
    pub fn next(&mut self) -> Option<(TimeNs, E)> {
        while let Some(entry) = self.queue.pop_min() {
            if self.release(entry.slot) {
                self.tombstones -= 1;
                continue;
            }
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            self.live -= 1;
            self.dispatched += 1;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The timestamp of the next live event, without dispatching it.
    pub fn peek_time(&mut self) -> Option<TimeNs> {
        loop {
            let entry = self.queue.peek_min()?;
            let (time, slot) = (entry.time, entry.slot);
            if !self.slots[slot as usize].cancelled {
                return Some(time);
            }
            self.queue.pop_min();
            self.release(slot);
            self.tombstones -= 1;
        }
    }

    /// Count of pending (live) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cancelled events still occupying queue slots (drained lazily as
    /// they surface).  Diagnostic: after the queue runs dry this is
    /// always zero.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    // ----- slab internals ---------------------------------------------

    /// Returns `slot` to the free list once its queue entry has been
    /// popped, staling any outstanding token.  Reports whether the event
    /// had been cancelled (cancellation already bumped the stamp).
    fn release(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        let cancelled = s.cancelled;
        if !cancelled {
            s.gen = s.gen.wrapping_add(1);
        }
        s.cancelled = false;
        self.free.push(slot);
        cancelled
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
    fn cancel_prevents_dispatch() {
        let mut eng: Engine<&str> = Engine::new();
        let t1 = eng.schedule(TimeNs(10), "a");
        eng.schedule(TimeNs(20), "b");
        assert!(eng.cancel(t1));
        assert!(!eng.cancel(t1), "double cancel reports false");
        assert_eq!(eng.next().unwrap().1, "b");
        assert!(eng.next().is_none());
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut eng: Engine<u8> = Engine::new();
        assert!(!eng.cancel(EventToken::forged(42, 0)));
    }

    #[test]
    fn cancel_after_fire_is_false_and_leaves_no_tombstone() {
        // Regression: the HashSet-based queue recorded a tombstone for
        // events cancelled *after* they fired and never drained it.
        let mut eng: Engine<u8> = Engine::new();
        let t = eng.schedule(TimeNs(1), 1);
        assert_eq!(eng.next(), Some((TimeNs(1), 1)));
        assert!(!eng.cancel(t), "event already fired");
        assert_eq!(eng.tombstones(), 0);
    }

    #[test]
    fn tombstones_drain_to_zero_on_pop() {
        let mut eng: Engine<u32> = Engine::new();
        let mut tokens = Vec::new();
        for i in 0..64 {
            tokens.push(eng.schedule(TimeNs(i % 9), i as u32));
        }
        for t in tokens.iter().step_by(2) {
            assert!(eng.cancel(*t));
        }
        assert_eq!(eng.tombstones(), 32);
        assert_eq!(eng.len(), 32);
        let mut popped = 0;
        while eng.next().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 32);
        assert_eq!(eng.tombstones(), 0, "cancelled slots are purged lazily");
        assert_eq!(eng.len(), 0);
    }

    #[test]
    fn stale_token_cannot_cancel_a_recycled_slot() {
        let mut eng: Engine<&str> = Engine::new();
        let stale = eng.schedule(TimeNs(1), "first");
        eng.next();
        // The slab now recycles the freed slot for a new event; the old
        // token must not be able to cancel it.
        let fresh = eng.schedule(TimeNs(2), "second");
        assert!(!eng.cancel(stale));
        assert_eq!(eng.next(), Some((TimeNs(2), "second")));
        assert!(!eng.cancel(fresh), "fresh token is stale after dispatch");
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
    fn peek_skips_cancelled() {
        let mut eng: Engine<u8> = Engine::new();
        let t = eng.schedule(TimeNs(1), 1);
        eng.schedule(TimeNs(2), 2);
        eng.cancel(t);
        assert_eq!(eng.peek_time(), Some(TimeNs(2)));
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.next(), Some((TimeNs(2), 2)));
        assert_eq!(eng.peek_time(), None);
    }

    #[test]
    fn dispatched_counts_only_live_events() {
        let mut eng: Engine<u8> = Engine::new();
        let t = eng.schedule(TimeNs(1), 1);
        eng.schedule(TimeNs(2), 2);
        eng.cancel(t);
        while eng.next().is_some() {}
        assert_eq!(eng.dispatched(), 1);
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
        let t = eng.schedule(TimeNs(10), 1);
        eng.schedule(TimeNs(20), 2);
        eng.cancel(t);
        eng.next();
        eng.reset();
        assert_eq!(eng.now(), TimeNs::ZERO);
        assert_eq!(eng.dispatched(), 0);
        assert_eq!(eng.len(), 0);
        assert_eq!(eng.tombstones(), 0);
        // A full re-run behaves exactly like a fresh engine.
        eng.schedule(TimeNs(5), 7);
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
