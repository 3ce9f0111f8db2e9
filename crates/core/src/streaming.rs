//! [`compile_program_stream`]: the decode → translate → compile chain
//! over an [`extrap_trace::stream::ProgramStream`], kept for the
//! benchmark harness under `perfbench/`, which still calls it, until a
//! benchmark change moves that harness onto `translate` and
//! [`CompiledProgram::compile`] directly.

use crate::processor::CompiledProgram;
use extrap_trace::stream::ProgramStream;
use extrap_trace::{translate, TraceError, TranslateOptions};

/// Translates and compiles the trace `stream` decoded: exactly
/// `CompiledProgram::compile(&translate(trace, options)?)`.
pub fn compile_program_stream(
    stream: &mut ProgramStream,
    options: TranslateOptions,
) -> Result<CompiledProgram, TraceError> {
    CompiledProgram::compile(&translate(stream.trace(), options)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;
    use extrap_trace::stream::SliceSource;
    use extrap_trace::{format, PhaseProgram, PhaseWork};

    #[test]
    fn program_stream_compiles_identically() {
        let mut p = PhaseProgram::new(3);
        for i in 0..5 {
            p.push_phase(vec![
                PhaseWork {
                    compute: DurationNs(100 + 17 * i),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(250),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(40 + 3 * i),
                    accesses: vec![],
                },
            ]);
        }
        let pt = p.record();
        let opts = TranslateOptions::default();
        let expected = CompiledProgram::compile(&translate(&pt, opts).unwrap()).unwrap();
        let bytes = format::encode_program(&pt);
        let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
        assert_eq!(compile_program_stream(&mut stream, opts).unwrap(), expected);
    }
}
