//! The engine's pending-event store: a binary min-heap with keys and
//! payloads inline, so scheduling and dispatching never leave the
//! heap's contiguous storage.  O(log n) per operation and insensitive
//! to the timestamp distribution — at the small queue depths of the
//! paper's workloads the log factor is a handful of comparisons on hot
//! cache lines.

use extrap_time::TimeNs;

/// One pending event: the `(time, seq)` ordering key, the slab slot
/// carrying the event's cancellation state, and the payload itself.
/// Everything a dispatch needs is inline, so the heap never chases a
/// side table while reordering its storage.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EventEntry<E> {
    /// Absolute event timestamp.
    pub time: TimeNs,
    /// Schedule-order sequence number (the FIFO tie-breaker).
    pub seq: u64,
    /// Slab slot holding this event's cancellation state.
    pub slot: u32,
    /// The event payload.
    pub payload: E,
}

impl<E> EventEntry<E> {
    /// The `(time, seq)` ordering key packed into one `u128` so a
    /// comparison is a single wide compare.  `TimeNs` is a transparent
    /// `u64` with derived (numeric) ordering, so the packing is exactly
    /// lexicographic.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time.0 as u128) << 64) | self.seq as u128
    }
}

/// A min-heap of [`EventEntry`]s ordered by `(time, seq)`.
///
/// Payloads are `Copy`: simulator events are small value types, and the
/// bound lets the sifts move elements hole-style (one write per level)
/// like `std::collections::BinaryHeap`.
pub(crate) struct HeapScheduler<E> {
    heap: Vec<EventEntry<E>>,
}

impl<E: Copy> HeapScheduler<E> {
    /// Creates an empty heap.
    pub fn new() -> HeapScheduler<E> {
        HeapScheduler { heap: Vec::new() }
    }

    /// Inserts an entry.
    pub fn push(&mut self, entry: EventEntry<E>) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the entry with the minimum `(time, seq)` key.
    pub fn pop_min(&mut self) -> Option<EventEntry<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(top)
    }

    /// The entry [`pop_min`](Self::pop_min) would return, without
    /// removing it.
    pub fn peek_min(&self) -> Option<&EventEntry<E>> {
        self.heap.first()
    }

    /// Removes every entry, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let moved = self.heap[i];
        let key = moved.key();
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }

    /// Restores the heap after the root was replaced, `BinaryHeap`-style:
    /// walk a hole all the way to a leaf, always promoting the smaller
    /// child (one comparison per level instead of two), then sift the
    /// displaced element back up.  The displaced element came from the
    /// bottom of the heap, so the trailing sift-up almost always stops
    /// immediately.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let moved = self.heap[i];
        let start = i;
        loop {
            let child = 2 * i + 1;
            if child >= len {
                break;
            }
            let right = child + 1;
            let smaller = if right < len && self.heap[right].key() < self.heap[child].key() {
                right
            } else {
                child
            };
            self.heap[i] = self.heap[smaller];
            i = smaller;
        }
        let key = moved.key();
        while i > start {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_lexicographic() {
        let a = EventEntry {
            time: TimeNs(1),
            seq: u64::MAX,
            slot: 0,
            payload: (),
        };
        let b = EventEntry {
            time: TimeNs(2),
            seq: 0,
            slot: 0,
            payload: (),
        };
        assert!(a.key() < b.key());
    }
}
