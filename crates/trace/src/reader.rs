//! Reading traces from files: the whole file is read into memory,
//! decoded ([`crate::format`]) and checked against the structural
//! invariants ([`ProgramTrace::validate`] / [`TraceSet::validate`]).
//! Every error carries the file path ([`TraceError::InFile`]).
//! Diagnostic tools that must see a corrupted trace in full
//! (`extrap-lint`) decode with `format::decode_*_raw` instead, which
//! skips the invariant checks.

use crate::error::TraceError;
use crate::event::{ProgramTrace, TraceSet};
use crate::format;
use std::path::Path;

/// Reads and validates a program trace file.
pub fn read_program_file(path: impl AsRef<Path>) -> Result<ProgramTrace, TraceError> {
    read_file(path.as_ref(), format::decode_program)
}

/// Reads and validates a translated trace-set file.
pub fn read_set_file(path: impl AsRef<Path>) -> Result<TraceSet, TraceError> {
    read_file(path.as_ref(), format::decode_set)
}

fn read_file<T>(path: &Path, decode: fn(&[u8]) -> Result<T, TraceError>) -> Result<T, TraceError> {
    let data = std::fs::read(path).map_err(|e| TraceError::from(e).in_file(path))?;
    decode(&data).map_err(|e| e.in_file(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceRecord};
    use extrap_time::{ThreadId, TimeNs};
    use std::path::PathBuf;

    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("extrap-reader-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

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
        let path = temp_file("regress.xtrp", &format::encode_program(&pt));
        let err = read_program_file(&path).unwrap_err();
        assert!(err.to_string().contains("regress.xtrp"));
        assert!(err.to_string().contains("timestamp regression"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_stream_is_format_error() {
        let path = temp_file("empty.xtps", b"");
        let err = read_set_file(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::Format { .. }))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_read_accepts_invariant_violations() {
        // A set with a per-thread timestamp regression: the strict
        // reader rejects it, the raw decoder hands it over for diagnosis.
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
        let path = temp_file("regress.xtps", &bytes);
        let err = read_set_file(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::ThreadTimeRegression { .. }))
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(format::decode_set_raw(&bytes).unwrap(), set);
    }
}
