//! Writing traces to streams and files.

use crate::error::TraceError;
use crate::event::{ProgramTrace, TraceSet};
use crate::format;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes a program trace in binary form to any `Write` sink.
pub fn write_program(w: &mut impl Write, trace: &ProgramTrace) -> Result<(), TraceError> {
    w.write_all(&format::encode_program(trace))?;
    Ok(())
}

/// Writes a program trace to a file (created or truncated).
pub fn write_program_file(path: impl AsRef<Path>, trace: &ProgramTrace) -> Result<(), TraceError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_program(&mut w, trace)?;
    w.flush()?;
    Ok(())
}

/// Writes a translated trace set in binary form to any `Write` sink.
pub fn write_set(w: &mut impl Write, set: &TraceSet) -> Result<(), TraceError> {
    w.write_all(&format::encode_set(set))?;
    Ok(())
}

/// Writes a translated trace set to a file (created or truncated).
pub fn write_set_file(path: impl AsRef<Path>, set: &TraceSet) -> Result<(), TraceError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_set(&mut w, set)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PhaseProgram;
    use crate::reader;
    use extrap_time::DurationNs;

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("extrap-trace-writer-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.xtrp");

        let mut p = PhaseProgram::new(2);
        p.push_uniform_phase(DurationNs(10));
        let pt = p.record();
        write_program_file(&path, &pt).unwrap();
        let back = reader::read_program_file(&path).unwrap();
        assert_eq!(pt, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_round_trip_set() {
        let mut p = PhaseProgram::new(2);
        p.push_uniform_phase(DurationNs(10));
        let ts = crate::translate(&p.record(), Default::default()).unwrap();
        let mut buf = Vec::new();
        write_set(&mut buf, &ts).unwrap();
        let back = crate::format::decode_set(&buf).unwrap();
        assert_eq!(ts, back);
    }
}
