//! The slice-backed [`ProgramStream`] that the benchmark harness under
//! `perfbench/` still calls, together with
//! `extrap_core::compile_program_stream`.  It is a thin wrapper over
//! [`format::decode_program_raw`] and adds nothing else; it stays only
//! until a benchmark change moves that harness onto the decoder.

use crate::error::TraceError;
use crate::event::ProgramTrace;
use crate::format;

/// An encoded trace held in memory.
#[derive(Debug)]
pub struct SliceSource<'a>(pub &'a [u8]);

/// A program trace decoded raw (structure checked, invariants not).
#[derive(Debug)]
pub struct ProgramStream {
    trace: ProgramTrace,
}

impl ProgramStream {
    /// Decodes `src` with [`format::decode_program_raw`].
    pub fn new(src: SliceSource<'_>) -> Result<ProgramStream, TraceError> {
        Ok(ProgramStream {
            trace: format::decode_program_raw(src.0)?,
        })
    }

    /// The decoded trace.
    pub fn trace(&self) -> &ProgramTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PhaseProgram;
    use extrap_time::DurationNs;

    fn sample_bytes() -> Vec<u8> {
        let mut p = PhaseProgram::new(3);
        p.push_uniform_phase(DurationNs(100));
        p.push_uniform_phase(DurationNs(250));
        format::encode_program(&p.record())
    }

    #[test]
    fn program_stream_matches_slurp_decoder() {
        let bytes = sample_bytes();
        let s = ProgramStream::new(SliceSource(&bytes)).unwrap();
        assert_eq!(s.trace(), &format::decode_program(&bytes).unwrap());
    }

    #[test]
    fn stream_errors_match_slurp_decoder_errors() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let stream = ProgramStream::new(SliceSource(&bytes[..cut])).unwrap_err();
            let slurp = format::decode_program_raw(&bytes[..cut]).unwrap_err();
            assert_eq!(stream.to_string(), slurp.to_string(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected_with_exact_count() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&[0, 1, 2]);
        let err = ProgramStream::new(SliceSource(&bytes)).unwrap_err();
        assert!(err.to_string().contains("3 trailing bytes"), "{err}");
    }
}
