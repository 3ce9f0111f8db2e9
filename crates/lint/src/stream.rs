//! The trace lint passes as record-at-a-time machines.
//!
//! * [`WellFormedStream`] — well-formedness (`E001`, `E002`, `E003`,
//!   `E004`, `E006`, `E009`, `W001`, `W002`, `W003`);
//! * [`SoundnessStream`] — translation soundness (`E005`, `E007`),
//!   keeping per-thread barrier-sequence digests and the collapsed
//!   vector clocks (barrier-epoch counters) rather than the records.
//!
//! They are lint's one implementation: the passes in [`crate::passes`]
//! drive them over decoded records, a program trace in its global
//! order or a trace set segment by segment.

use crate::diag::{Code, Diagnostic, Report, Span};
use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};
use extrap_trace::{EventKind, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// Which trace shape a machine is consuming.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
    Program,
    Set,
}

/// Per-thread well-formedness cursor.
struct ThreadWf {
    thread: ThreadId,
    count: usize,
    first_kind: Option<EventKind>,
    last_kind: Option<EventKind>,
    open: Option<(BarrierId, Span)>,
    epoch: usize,
    markers: Vec<u32>,
    prev_time: TimeNs,
}

impl ThreadWf {
    fn new(thread: ThreadId) -> ThreadWf {
        ThreadWf {
            thread,
            count: 0,
            first_kind: None,
            last_kind: None,
            open: None,
            epoch: 0,
            markers: Vec::new(),
            prev_time: TimeNs::ZERO,
        }
    }
}

/// The well-formedness pass as an incremental machine (see module docs).
pub struct WellFormedStream {
    shape: Shape,
    n_threads: usize,
    threads: Vec<ThreadWf>,
    current: usize,
    next_record: usize,
    prev_time: TimeNs,
    /// First claimed owner per `(epoch, element)`, shared across threads.
    owners: BTreeMap<(usize, ElementId), ThreadId>,
}

impl WellFormedStream {
    /// A machine for a 1-processor program trace declaring `n_threads`.
    pub fn for_program(n_threads: usize) -> WellFormedStream {
        WellFormedStream {
            shape: Shape::Program,
            n_threads,
            threads: (0..n_threads)
                .map(|t| ThreadWf::new(ThreadId(t as u32)))
                .collect(),
            current: 0,
            next_record: 0,
            prev_time: TimeNs::ZERO,
            owners: BTreeMap::new(),
        }
    }

    /// A machine for a trace set declaring `n_threads` segments.
    pub fn for_set(n_threads: usize) -> WellFormedStream {
        WellFormedStream {
            shape: Shape::Set,
            n_threads,
            threads: Vec::new(),
            current: 0,
            next_record: 0,
            prev_time: TimeNs::ZERO,
            owners: BTreeMap::new(),
        }
    }

    /// Starts the next per-thread segment (set shape only).
    pub fn begin_thread(&mut self, position: usize, thread: ThreadId, report: &mut Report) {
        debug_assert_eq!(self.shape, Shape::Set);
        if thread.index() != position {
            report.push(
                Code::E009MisplacedThread,
                Span::thread(thread),
                format!("trace at position {position} claims to belong to {thread}"),
            );
        }
        self.threads.push(ThreadWf::new(thread));
        self.current = self.threads.len() - 1;
        self.next_record = 0;
    }

    /// Feeds one record; returns the `(thread index, span)` the record
    /// was attributed to, or `None` when it belongs to no tracked
    /// thread (out-of-range ids in a program trace).
    pub fn record(&mut self, r: &TraceRecord, report: &mut Report) -> Option<(usize, Span)> {
        match self.shape {
            Shape::Program => {
                let i = self.next_record;
                self.next_record += 1;
                if r.thread.index() >= self.n_threads {
                    report.push(
                        Code::E003BadThreadId,
                        Span::record(i),
                        format!(
                            "record references {} but the trace declares {} threads",
                            r.thread, self.n_threads
                        ),
                    );
                }
                if r.time < self.prev_time {
                    report.push(
                        Code::E001GlobalTimeRegression,
                        Span::at(r.thread, i),
                        format!(
                            "global clock goes backwards: {} ns after {} ns",
                            r.time.0, self.prev_time.0
                        ),
                    );
                }
                // Resynchronize after a dip so one corruption yields one
                // diagnostic instead of flagging every later in-order record.
                self.prev_time = r.time;
                if r.thread.index() < self.n_threads {
                    let idx = r.thread.index();
                    let span = Span::at(r.thread, i);
                    self.step(idx, span, r, report);
                    Some((idx, span))
                } else {
                    None
                }
            }
            Shape::Set => {
                let j = self.next_record;
                self.next_record += 1;
                let idx = self.current;
                let thread = self.threads[idx].thread;
                let span = Span::at(thread, j);
                if r.thread != thread {
                    report.push(
                        Code::E009MisplacedThread,
                        span,
                        format!("record of {} found in {thread}'s trace", r.thread),
                    );
                }
                if r.time < self.threads[idx].prev_time {
                    report.push(
                        Code::E002ThreadTimeRegression,
                        span,
                        format!(
                            "{thread}'s clock goes backwards: {} ns after {} ns",
                            r.time.0, self.threads[idx].prev_time.0
                        ),
                    );
                }
                self.threads[idx].prev_time = r.time;
                self.step(idx, span, r, report);
                Some((idx, span))
            }
        }
    }

    /// The shape-independent per-thread protocol checks.
    fn step(&mut self, idx: usize, span: Span, r: &TraceRecord, report: &mut Report) {
        let tw = &mut self.threads[idx];
        tw.count += 1;
        if tw.first_kind.is_none() {
            tw.first_kind = Some(r.kind);
        }
        tw.last_kind = Some(r.kind);
        let (owner, element) = match r.kind {
            EventKind::BarrierEnter { barrier } => {
                if let Some((inside, _)) = tw.open {
                    report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} enters barrier {} while still inside barrier {}",
                            tw.thread,
                            barrier.index(),
                            inside.index()
                        ),
                    );
                }
                tw.open = Some((barrier, span));
                tw.epoch += 1;
                return;
            }
            EventKind::BarrierExit { barrier } => {
                match tw.open.take() {
                    None => report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} exits barrier {} without having entered it",
                            tw.thread,
                            barrier.index()
                        ),
                    ),
                    Some((entered, _)) if entered != barrier => report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} exits barrier {} but entered barrier {}",
                            tw.thread,
                            barrier.index(),
                            entered.index()
                        ),
                    ),
                    Some(_) => {}
                }
                return;
            }
            EventKind::Marker { id } => {
                tw.markers.push(id);
                return;
            }
            EventKind::RemoteRead { owner, element, .. }
            | EventKind::RemoteWrite { owner, element, .. } => (owner, element),
            _ => return,
        };
        // Ownership is only required to be consistent *within* a barrier
        // epoch: programs redistribute arrays (and multigrid codes reuse
        // element ids across levels), but two same-epoch accesses naming
        // different owners for one element cannot both be right.
        let (thread, epoch) = (tw.thread, tw.epoch);
        if owner.index() >= self.n_threads {
            report.push(
                Code::E006DanglingElement,
                span,
                format!(
                    "remote access to element {} names owner {owner} but the trace has \
                     {} threads",
                    element.index(),
                    self.n_threads
                ),
            );
        } else if owner == thread {
            report.push(
                Code::W002SelfRemoteAccess,
                span,
                format!(
                    "{thread} remote-accesses element {} it owns itself (local access \
                     traced as remote?)",
                    element.index()
                ),
            );
        }
        match self.owners.get(&(epoch, element)) {
            None => {
                self.owners.insert((epoch, element), owner);
            }
            Some(&first) if first != owner => {
                report.push(
                    Code::E006DanglingElement,
                    span,
                    format!(
                        "element {} accessed with owner {owner} but an access in the same \
                         barrier epoch names owner {first} (inconsistent ownership)",
                        element.index()
                    ),
                );
            }
            Some(_) => {}
        }
    }

    /// Emits the end-of-stream diagnostics: per-thread frame (`W003`)
    /// and unclosed-barrier (`E004`) checks, then the cross-thread
    /// marker comparison (`W001`).
    pub fn finish(&mut self, report: &mut Report) {
        for tw in &self.threads {
            match (tw.first_kind, tw.last_kind) {
                (None, _) => report.push(
                    Code::W003MissingThreadFrame,
                    Span::thread(tw.thread),
                    format!("{} has no events at all", tw.thread),
                ),
                (Some(EventKind::ThreadBegin), Some(EventKind::ThreadEnd)) => {}
                (first, last) => report.push(
                    Code::W003MissingThreadFrame,
                    Span::thread(tw.thread),
                    format!(
                        "{}'s stream is not framed by begin/end (starts with {}, ends with {})",
                        tw.thread,
                        first.map(|k| k.tag()).unwrap_or("nothing"),
                        last.map(|k| k.tag()).unwrap_or("nothing"),
                    ),
                ),
            }
            if let Some((barrier, span)) = tw.open {
                report.push(
                    Code::E004BarrierProtocol,
                    span,
                    format!(
                        "{} enters barrier {} but never exits it",
                        tw.thread,
                        barrier.index()
                    ),
                );
            }
        }
        let Some(first) = self.threads.first() else {
            return;
        };
        let (reference, ref_thread) = (&first.markers, first.thread);
        for tw in &self.threads[1..] {
            if &tw.markers != reference {
                report.push(
                    Code::W001MarkerMismatch,
                    Span::thread(tw.thread),
                    format!(
                        "{} passes marker sequence {:?} but {ref_thread} passes {:?}",
                        tw.thread, tw.markers, reference
                    ),
                );
            }
        }
    }
}

/// One element's accesses within one barrier epoch, collapsed to the
/// digest `E007` needs: the first writer (in view order) and the set of
/// participating threads.
struct EpochAccess {
    writer: Option<(ThreadId, Span, (usize, usize))>,
    participants: BTreeSet<ThreadId>,
}

/// Per-thread soundness digest.
struct ThreadSound {
    thread: ThreadId,
    epoch: usize,
    entered: usize,
    first_mismatch: Option<(usize, u32, u32)>,
    /// Barrier enters that arrived before the reference sequence grew
    /// to their position (a program trace may interleave thread 0
    /// after its peers); resolved at [`SoundnessStream::finish`].
    pending: Vec<(usize, u32)>,
}

impl ThreadSound {
    fn new(thread: ThreadId) -> ThreadSound {
        ThreadSound {
            thread,
            epoch: 0,
            entered: 0,
            first_mismatch: None,
            pending: Vec::new(),
        }
    }
}

/// The translation-soundness pass as an incremental machine: `E005`
/// barrier-sequence agreement via per-thread digests against the first
/// thread's reference sequence, and `E007` causality via the collapsed
/// vector clocks (see the module docs of `passes::soundness` for the
/// theory).
pub struct SoundnessStream {
    threads: Vec<ThreadSound>,
    /// The first thread's barrier-id sequence (the `E005` reference).
    reference: Vec<u32>,
    accesses: BTreeMap<(usize, ElementId), EpochAccess>,
}

impl SoundnessStream {
    /// A machine for a program trace declaring `n_threads`.
    pub fn for_program(n_threads: usize) -> SoundnessStream {
        SoundnessStream {
            threads: (0..n_threads)
                .map(|t| ThreadSound::new(ThreadId(t as u32)))
                .collect(),
            reference: Vec::new(),
            accesses: BTreeMap::new(),
        }
    }

    /// A machine for a trace set.
    pub fn for_set() -> SoundnessStream {
        SoundnessStream {
            threads: Vec::new(),
            reference: Vec::new(),
            accesses: BTreeMap::new(),
        }
    }

    /// Starts the next per-thread segment (set shape only).
    pub fn begin_thread(&mut self, thread: ThreadId) {
        self.threads.push(ThreadSound::new(thread));
    }

    /// Feeds one record attributed to thread index `idx` (program:
    /// `r.thread`'s index; set: the segment position) at `span`.
    pub fn record(&mut self, idx: usize, span: Span, r: &TraceRecord) {
        match r.kind {
            EventKind::BarrierEnter { barrier } => {
                let t = &mut self.threads[idx];
                let pos = t.entered;
                t.entered += 1;
                t.epoch += 1;
                if idx == 0 {
                    self.reference.push(barrier.0);
                } else if pos < self.reference.len() {
                    if self.reference[pos] != barrier.0 && t.first_mismatch.is_none() {
                        t.first_mismatch = Some((pos, barrier.0, self.reference[pos]));
                    }
                } else {
                    t.pending.push((pos, barrier.0));
                }
            }
            EventKind::RemoteRead { element, .. } => self.note_access(idx, span, element, false),
            EventKind::RemoteWrite { element, .. } => self.note_access(idx, span, element, true),
            _ => {}
        }
    }

    fn note_access(&mut self, idx: usize, span: Span, element: ElementId, write: bool) {
        let t = &self.threads[idx];
        let (thread, epoch) = (t.thread, t.epoch);
        let acc = self
            .accesses
            .entry((epoch, element))
            .or_insert_with(|| EpochAccess {
                writer: None,
                participants: BTreeSet::new(),
            });
        acc.participants.insert(thread);
        if write {
            // "First writer" in view order = minimal (view index, record
            // index), matching the whole-trace pass even when the global
            // stream interleaves threads.
            let key = (idx, span.record.unwrap_or(0));
            match acc.writer {
                Some((_, _, k)) if k <= key => {}
                _ => acc.writer = Some((thread, span, key)),
            }
        }
    }

    /// Converts one collapsed access cell into its `E007` diagnostic,
    /// if it is a race (a writer plus at least one other participant).
    fn race_diagnostic(key: (usize, ElementId), acc: &EpochAccess) -> Option<Diagnostic> {
        let (epoch, element) = key;
        let (writer, span, _) = acc.writer?;
        if acc.participants.len() <= 1 {
            return None;
        }
        let others: Vec<String> = acc
            .participants
            .iter()
            .filter(|&&t| t != writer)
            .map(|t| t.to_string())
            .collect();
        Some(Diagnostic::new(
            Code::E007CausalityViolation,
            span,
            format!(
                "write to element {} by {writer} is concurrent with accesses by {} in \
                 barrier epoch {epoch} — no happens-before edge orders them, so the \
                 trace does not transfer across timings (§5)",
                element.index(),
                others.join(", "),
            ),
        ))
    }

    /// Emits the end-of-stream diagnostics: `E005` per disagreeing
    /// thread, then every `E007` race in `(epoch, element)` order.
    pub fn finish(&mut self, report: &mut Report) {
        if self.threads.is_empty() {
            return;
        }
        let (head, tail) = self.threads.split_at_mut(1);
        let ref_thread = head[0].thread;
        let ref_len = self.reference.len();
        for t in tail {
            // Resolve enters that outran the reference, keeping the
            // lowest-position mismatch (a pending entry at position p can
            // precede an inline-compared one at position q > p).
            for &(pos, b) in &t.pending {
                if pos < ref_len && self.reference[pos] != b {
                    match t.first_mismatch {
                        Some((p, _, _)) if p <= pos => {}
                        _ => t.first_mismatch = Some((pos, b, self.reference[pos])),
                    }
                }
            }
            if t.entered != ref_len {
                report.push(
                    Code::E005BarrierMismatch,
                    Span::thread(t.thread),
                    format!(
                        "{} enters {} barriers but {ref_thread} enters {} — the threads \
                         deadlock at barrier number {}",
                        t.thread,
                        t.entered,
                        ref_len,
                        t.entered.min(ref_len)
                    ),
                );
            } else if let Some((i, a, b)) = t.first_mismatch {
                report.push(
                    Code::E005BarrierMismatch,
                    Span::thread(t.thread),
                    format!(
                        "{} enters barrier {a} where {ref_thread} enters barrier {b} \
                         (position {i} of the barrier sequence)",
                        t.thread
                    ),
                );
            }
        }
        for (&key, acc) in &self.accesses {
            if let Some(d) = SoundnessStream::race_diagnostic(key, acc) {
                report.diagnostics.push(d);
            }
        }
    }
}
