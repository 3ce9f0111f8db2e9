//! Reading traces from streams and files.
//!
//! Every reader decodes through the chunked streams of
//! [`crate::stream`] and then enforces the structural invariants
//! ([`ProgramTrace::validate`] / [`TraceSet::validate`]).  Diagnostic
//! tools that must see a corrupted trace in full (`extrap-lint`) read
//! through [`ProgramStream`] / [`SetStream`] directly, which skip the
//! invariant checks.

use crate::error::TraceError;
use crate::event::{ProgramTrace, TraceSet};
use crate::stream::{ProgramStream, ReadSource, SetStream};
use std::io::Read;
use std::path::Path;

/// Reads a program trace from a file.
///
/// The file is consumed through the chunked [`ProgramStream`], so peak
/// memory is one refill window plus the decoded records.  All failure
/// modes — open, decode, invariant violations — carry the file path in
/// the error ([`TraceError::InFile`]).
pub fn read_program_file(path: impl AsRef<Path>) -> Result<ProgramTrace, TraceError> {
    let path = path.as_ref();
    let trace = ProgramStream::open(path)?.read_to_end()?;
    trace.validate().map_err(|e| e.in_file(path))?;
    Ok(trace)
}

/// Reads a translated trace set from any `Read` source.
pub fn read_set(r: &mut impl Read) -> Result<TraceSet, TraceError> {
    let set = SetStream::new(ReadSource(r))?.read_to_end()?;
    set.validate()?;
    Ok(set)
}

/// Reads a translated trace set from a file (chunked, with the path in
/// every error, like [`read_program_file`]).
pub fn read_set_file(path: impl AsRef<Path>) -> Result<TraceSet, TraceError> {
    let path = path.as_ref();
    let set = SetStream::open(path)?.read_to_end()?;
    set.validate().map_err(|e| e.in_file(path))?;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceRecord};
    use crate::format;
    use extrap_time::{ThreadId, TimeNs};

    #[test]
    fn missing_file_is_io_error_with_path() {
        let err = read_program_file("/nonexistent/path/trace.xtrp").unwrap_err();
        assert!(
            matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::Io(_)))
        );
        assert!(err.to_string().contains("/nonexistent/path/trace.xtrp"));
    }

    #[test]
    fn file_validate_errors_carry_the_path() {
        let mut pt = crate::event::ProgramTrace::new(1);
        let rec = |t: u64, kind| TraceRecord {
            time: TimeNs(t),
            thread: ThreadId(0),
            kind,
        };
        pt.records.push(rec(5, EventKind::ThreadBegin));
        pt.records.push(rec(3, EventKind::ThreadEnd));
        let dir = std::env::temp_dir().join(format!("extrap-reader-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("regress.xtrp");
        std::fs::write(&path, format::encode_program(&pt)).unwrap();
        let err = read_program_file(&path).unwrap_err();
        assert!(err.to_string().contains("regress.xtrp"));
        assert!(err.to_string().contains("timestamp regression"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_stream_is_format_error() {
        let err = read_set(&mut &b""[..]).unwrap_err();
        assert!(matches!(err, TraceError::Format { .. }));
    }

    #[test]
    fn raw_read_accepts_invariant_violations() {
        // A set with a per-thread timestamp regression: the strict
        // reader rejects it, the raw stream hands it over for diagnosis.
        let rec = |t: u64, kind| TraceRecord {
            time: TimeNs(t),
            thread: ThreadId(0),
            kind,
        };
        let set = TraceSet {
            threads: vec![crate::event::ThreadTrace {
                thread: ThreadId(0),
                records: vec![rec(5, EventKind::ThreadBegin), rec(3, EventKind::ThreadEnd)],
            }],
        };
        let bytes = format::encode_set(&set);
        assert!(matches!(
            read_set(&mut &bytes[..]),
            Err(TraceError::ThreadTimeRegression { .. })
        ));
        let raw = SetStream::new(crate::stream::SliceSource(&bytes))
            .and_then(|mut s| s.read_to_end())
            .unwrap();
        assert_eq!(raw, set);
    }
}
