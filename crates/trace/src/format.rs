//! The compact binary trace format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ProgramTrace file:            TraceSet file:
//!   magic   b"XTRP"               magic   b"XTPS"
//!   version u16 (= 1)             version u16 (= 1)
//!   n_threads u32                 n_threads u32
//!   n_records u64                 per thread:
//!   records ...                     thread    u32
//!                                   n_records u64
//!                                   records ...
//! record:
//!   time   u64
//!   thread u32
//!   kind   u8
//!   payload (kind-dependent, see `encode_record`)
//! ```

use crate::bytesio::{Buf, BufMut};
use crate::error::TraceError;
use crate::event::{EventKind, ProgramTrace, ThreadTrace, TraceRecord, TraceSet};
use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};

/// Magic bytes for a program (1-processor) trace file.
pub const PROGRAM_MAGIC: &[u8; 4] = b"XTRP";
/// Magic bytes for a translated trace-set file.
pub const SET_MAGIC: &[u8; 4] = b"XTPS";
/// Current format version.
pub const VERSION: u16 = 1;

/// Which trace shape an encoded image holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A 1-processor program trace (`XTRP`).
    Program,
    /// A translated per-thread trace set (`XTPS`).
    Set,
}

/// The trace shape `data` declares by its magic bytes, or `None` when it
/// is shorter than a magic or carries neither (callers typically treat
/// such input as config text, or reject it).
pub fn trace_kind(data: &[u8]) -> Option<TraceKind> {
    match data.get(..4) {
        Some(magic) if magic == PROGRAM_MAGIC => Some(TraceKind::Program),
        Some(magic) if magic == SET_MAGIC => Some(TraceKind::Set),
        _ => None,
    }
}

/// Encoded size of the smallest record: a payload-free thread begin
/// or end (time u64 + thread u32 + kind u8).
const MIN_RECORD_BYTES: usize = 8 + 4 + 1;
/// Encoded size of a trace-set segment header (thread u32 + count u64).
const SEGMENT_HEADER_BYTES: usize = 4 + 8;

/// How many items to pre-allocate for a header that declares
/// `declared` of them when only `remaining` input bytes are left: no
/// more than those bytes can encode at `min_bytes` each, so a forged
/// count cannot make a decoder allocate ahead of its input.
fn capacity_hint(declared: u64, remaining: usize, min_bytes: usize) -> usize {
    declared.min((remaining / min_bytes) as u64) as usize
}

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_BARRIER_ENTER: u8 = 2;
const KIND_BARRIER_EXIT: u8 = 3;
const KIND_REMOTE_READ: u8 = 4;
const KIND_REMOTE_WRITE: u8 = 5;
const KIND_MARKER: u8 = 6;

/// Appends one record to `buf`.
pub fn encode_record(buf: &mut impl BufMut, rec: &TraceRecord) {
    buf.put_u64_le(rec.time.as_ns());
    buf.put_u32_le(rec.thread.0);
    match rec.kind {
        EventKind::ThreadBegin => buf.put_u8(KIND_BEGIN),
        EventKind::ThreadEnd => buf.put_u8(KIND_END),
        EventKind::BarrierEnter { barrier } => {
            buf.put_u8(KIND_BARRIER_ENTER);
            buf.put_u32_le(barrier.0);
        }
        EventKind::BarrierExit { barrier } => {
            buf.put_u8(KIND_BARRIER_EXIT);
            buf.put_u32_le(barrier.0);
        }
        EventKind::RemoteRead {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => {
            buf.put_u8(KIND_REMOTE_READ);
            buf.put_u32_le(owner.0);
            buf.put_u32_le(element.0);
            buf.put_u32_le(declared_bytes);
            buf.put_u32_le(actual_bytes);
        }
        EventKind::RemoteWrite {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => {
            buf.put_u8(KIND_REMOTE_WRITE);
            buf.put_u32_le(owner.0);
            buf.put_u32_le(element.0);
            buf.put_u32_le(declared_bytes);
            buf.put_u32_le(actual_bytes);
        }
        EventKind::Marker { id } => {
            buf.put_u8(KIND_MARKER);
            buf.put_u32_le(id);
        }
    }
}

/// Decodes one record from `buf`.
///
/// # Errors
/// Returns a format error on truncation or an unknown kind byte.
pub fn decode_record(buf: &mut impl Buf) -> Result<TraceRecord, TraceError> {
    if buf.remaining() < 8 + 4 + 1 {
        return Err(truncated("record header"));
    }
    let time = TimeNs(buf.get_u64_le());
    let thread = ThreadId(buf.get_u32_le());
    let kind_byte = buf.get_u8();
    let kind = match kind_byte {
        KIND_BEGIN => EventKind::ThreadBegin,
        KIND_END => EventKind::ThreadEnd,
        KIND_BARRIER_ENTER => EventKind::BarrierEnter {
            barrier: BarrierId(get_u32(buf, "barrier id")?),
        },
        KIND_BARRIER_EXIT => EventKind::BarrierExit {
            barrier: BarrierId(get_u32(buf, "barrier id")?),
        },
        KIND_REMOTE_READ | KIND_REMOTE_WRITE => {
            let owner = ThreadId(get_u32(buf, "owner")?);
            let element = ElementId(get_u32(buf, "element")?);
            let declared_bytes = get_u32(buf, "declared size")?;
            let actual_bytes = get_u32(buf, "actual size")?;
            if kind_byte == KIND_REMOTE_READ {
                EventKind::RemoteRead {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                }
            } else {
                EventKind::RemoteWrite {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                }
            }
        }
        KIND_MARKER => EventKind::Marker {
            id: get_u32(buf, "marker id")?,
        },
        other => {
            return Err(TraceError::Format {
                detail: format!("unknown event kind byte {other}"),
            })
        }
    };
    Ok(TraceRecord { time, thread, kind })
}

/// Encodes a whole program trace to bytes.
pub fn encode_program(trace: &ProgramTrace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + trace.records.len() * 16);
    buf.put_slice(PROGRAM_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(trace.n_threads as u32);
    buf.put_u64_le(trace.records.len() as u64);
    for r in &trace.records {
        encode_record(&mut buf, r);
    }
    buf
}

/// Decodes a program trace from bytes and validates it.
pub fn decode_program(data: &[u8]) -> Result<ProgramTrace, TraceError> {
    let pt = decode_program_raw(data)?;
    pt.validate()?;
    Ok(pt)
}

/// Decodes a program trace without checking semantic invariants.
///
/// Structural errors (bad magic/version, truncation, unknown kinds,
/// trailing bytes) are still rejected, but timestamp ordering and
/// thread-range invariants are **not** enforced — this is the entry
/// point for diagnostic tools (`extrap-lint`) that want to see the whole
/// record stream of a corrupted trace rather than fail at the first
/// violation.
pub fn decode_program_raw(mut data: &[u8]) -> Result<ProgramTrace, TraceError> {
    check_header(&mut data, PROGRAM_MAGIC)?;
    let n_threads = get_u32(&mut data, "thread count")? as usize;
    let n_records = get_u64(&mut data, "record count")?;
    let mut records =
        Vec::with_capacity(capacity_hint(n_records, data.remaining(), MIN_RECORD_BYTES));
    for _ in 0..n_records {
        records.push(decode_record(&mut data)?);
    }
    if data.has_remaining() {
        return Err(TraceError::Format {
            detail: format!("{} trailing bytes after records", data.remaining()),
        });
    }
    Ok(ProgramTrace { n_threads, records })
}

/// Encodes a translated trace set to bytes.
pub fn encode_set(set: &TraceSet) -> Vec<u8> {
    let total: usize = set.threads.iter().map(|t| t.records.len()).sum();
    let mut buf = Vec::with_capacity(10 + total * 16);
    buf.put_slice(SET_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(set.n_threads() as u32);
    for t in &set.threads {
        buf.put_u32_le(t.thread.0);
        buf.put_u64_le(t.records.len() as u64);
        for r in &t.records {
            encode_record(&mut buf, r);
        }
    }
    buf
}

/// Decodes a trace set from bytes and validates it.
pub fn decode_set(data: &[u8]) -> Result<TraceSet, TraceError> {
    let set = decode_set_raw(data)?;
    set.validate()?;
    Ok(set)
}

/// Decodes a trace set without checking semantic invariants (the
/// [`decode_program_raw`] counterpart for translated traces).
pub fn decode_set_raw(mut data: &[u8]) -> Result<TraceSet, TraceError> {
    check_header(&mut data, SET_MAGIC)?;
    let n_threads = get_u32(&mut data, "thread count")? as usize;
    let mut threads = Vec::with_capacity(capacity_hint(
        n_threads as u64,
        data.remaining(),
        SEGMENT_HEADER_BYTES,
    ));
    for _ in 0..n_threads {
        let thread = ThreadId(get_u32(&mut data, "thread id")?);
        let n_records = get_u64(&mut data, "record count")?;
        let mut records =
            Vec::with_capacity(capacity_hint(n_records, data.remaining(), MIN_RECORD_BYTES));
        for _ in 0..n_records {
            records.push(decode_record(&mut data)?);
        }
        threads.push(ThreadTrace { thread, records });
    }
    if data.has_remaining() {
        return Err(TraceError::Format {
            detail: format!("{} trailing bytes after records", data.remaining()),
        });
    }
    Ok(TraceSet { threads })
}

fn check_header(data: &mut &[u8], magic: &[u8; 4]) -> Result<(), TraceError> {
    if data.remaining() < 6 {
        return Err(truncated("file header"));
    }
    let mut found = [0u8; 4];
    data.copy_to_slice(&mut found);
    if &found != magic {
        return Err(TraceError::Format {
            detail: format!("bad magic {found:?}, expected {magic:?}"),
        });
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(TraceError::Format {
            detail: format!("unsupported format version {version}"),
        });
    }
    Ok(())
}

fn get_u32(buf: &mut impl Buf, what: &str) -> Result<u32, TraceError> {
    if buf.remaining() < 4 {
        return Err(truncated(what));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut impl Buf, what: &str) -> Result<u64, TraceError> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_u64_le())
}

fn truncated(what: &str) -> TraceError {
    TraceError::Format {
        detail: format!("truncated while reading {what}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PhaseProgram;
    use crate::translate::{translate, TranslateOptions};
    use extrap_time::DurationNs;

    fn sample_program() -> ProgramTrace {
        let mut p = PhaseProgram::new(3);
        p.push_uniform_phase(DurationNs(100));
        p.push_uniform_phase(DurationNs(250));
        p.record()
    }

    #[test]
    fn program_round_trip() {
        let pt = sample_program();
        let bytes = encode_program(&pt);
        let back = decode_program(&bytes).unwrap();
        assert_eq!(pt, back);
    }

    #[test]
    fn set_round_trip() {
        let ts = translate(&sample_program(), TranslateOptions::default()).unwrap();
        let bytes = encode_set(&ts);
        let back = decode_set(&bytes).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            EventKind::ThreadBegin,
            EventKind::ThreadEnd,
            EventKind::BarrierEnter {
                barrier: BarrierId(9),
            },
            EventKind::BarrierExit {
                barrier: BarrierId(9),
            },
            EventKind::RemoteRead {
                owner: ThreadId(2),
                element: ElementId(77),
                declared_bytes: 231_456,
                actual_bytes: 128,
            },
            EventKind::RemoteWrite {
                owner: ThreadId(1),
                element: ElementId(5),
                declared_bytes: 64,
                actual_bytes: 2,
            },
            EventKind::Marker { id: 42 },
        ];
        for kind in kinds {
            let rec = TraceRecord {
                time: TimeNs(123_456_789),
                thread: ThreadId(3),
                kind,
            };
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let back = decode_record(&mut &buf[..]).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes[0] = b'Z';
        assert!(matches!(
            decode_program(&bytes),
            Err(TraceError::Format { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes[4] = 99;
        assert!(decode_program(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_program(&sample_program());
        for cut in [0, 3, 6, 10, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes.push(0);
        assert!(decode_program(&bytes).is_err());
    }

    #[test]
    fn capacity_hint_is_bounded_by_remaining_bytes() {
        assert_eq!(capacity_hint(1 << 40, 0, MIN_RECORD_BYTES), 0);
        assert_eq!(capacity_hint(1 << 40, 130, MIN_RECORD_BYTES), 10);
        assert_eq!(capacity_hint(4, 1 << 20, MIN_RECORD_BYTES), 4);
        assert_eq!(capacity_hint(u64::MAX, 24, SEGMENT_HEADER_BYTES), 2);
        // The smallest record really is MIN_RECORD_BYTES long.
        let mut buf = Vec::new();
        encode_record(
            &mut buf,
            &TraceRecord {
                time: TimeNs(1),
                thread: ThreadId(0),
                kind: EventKind::ThreadEnd,
            },
        );
        assert_eq!(buf.len(), MIN_RECORD_BYTES);
    }

    #[test]
    fn forged_record_counts_fail_as_truncation() {
        // An 18-byte program header claiming 2^40 records, and a set
        // whose one segment claims as many: both must fail on the
        // missing first record, not on an allocation sized by the claim.
        let mut program = Vec::new();
        program.put_slice(PROGRAM_MAGIC);
        program.put_u16_le(VERSION);
        program.put_u32_le(1);
        program.put_u64_le(1 << 40);
        let err = decode_program_raw(&program).unwrap_err().to_string();
        assert!(
            err.contains("truncated while reading record header"),
            "{err}"
        );
        let mut set = Vec::new();
        set.put_slice(SET_MAGIC);
        set.put_u16_le(VERSION);
        set.put_u32_le(u32::MAX);
        set.put_u32_le(0);
        set.put_u64_le(1 << 40);
        let err = decode_set_raw(&set).unwrap_err().to_string();
        assert!(
            err.contains("truncated while reading record header"),
            "{err}"
        );
    }

    #[test]
    fn trace_kind_detects_both_kinds_and_rejects_others() {
        let pt = sample_program();
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        assert_eq!(trace_kind(&encode_program(&pt)), Some(TraceKind::Program));
        assert_eq!(trace_kind(&encode_set(&ts)), Some(TraceKind::Set));
        assert_eq!(trace_kind(b"MipsRatio = 1.0\n"), None);
        assert_eq!(trace_kind(b"XTR"), None);
        assert_eq!(trace_kind(b""), None);
    }

    #[test]
    fn unknown_kind_rejected() {
        let rec = TraceRecord {
            time: TimeNs(1),
            thread: ThreadId(0),
            kind: EventKind::ThreadBegin,
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let last = buf.len() - 1;
        buf[last] = 200;
        assert!(decode_record(&mut &buf[..]).is_err());
    }
}
