//! Out-of-core trace→program compilation: a one-pass pipeline that
//! folds a chunked raw-trace stream straight into a [`CompiledProgram`].
//!
//! The whole-trace path materializes three containers on the way to a
//! simulation — `ProgramTrace` → `TraceSet` → `CompiledProgram`.
//! [`compile_program_stream`] keeps only the streaming machinery
//! resident (decode window + epoch translator + per-thread fold state,
//! O(threads + live-epoch)) plus the compiled program itself, which is
//! the pipeline's product: the [`EpochTranslator`] feeds an
//! [`IncrementalCompiler`] directly and nothing intermediate is held.
//!
//! The result is byte-identical to the whole-trace path by
//! construction: the per-record fold is shared (see
//! [`IncrementalCompiler`]), and `extrap_trace::translate` is itself an
//! adapter over the same epoch translator.
//!
//! [`EpochTranslator`]: extrap_trace::EpochTranslator

use crate::processor::{CompiledProgram, IncrementalCompiler};
use extrap_trace::stream::{ChunkSource, ProgramStream};
use extrap_trace::{translate_stream, TraceError, TranslateOptions, TranslateStats};

/// Translates and compiles a raw program-trace stream in one pass.
///
/// Equivalent to `translate(&stream.read_to_end()?, options)` followed
/// by [`CompiledProgram::compile`], without ever holding the
/// `ProgramTrace` or the `TraceSet`.  The returned [`TranslateStats`]
/// carry the translate machinery's peak residency (the part this
/// pipeline bounds; the compiled program is the output and scales with
/// program structure).
pub fn compile_program_stream<S: ChunkSource>(
    stream: &mut ProgramStream<S>,
    options: TranslateOptions,
) -> Result<(CompiledProgram, TranslateStats), TraceError> {
    let mut compiler = IncrementalCompiler::new(stream.n_threads());
    let stats = translate_stream(stream, options, &mut compiler)?;
    Ok((compiler.finish(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::DurationNs;
    use extrap_trace::stream::SliceSource;
    use extrap_trace::{format, translate, PhaseProgram, PhaseWork};

    fn skewed_program(phases: usize) -> extrap_trace::ProgramTrace {
        let mut p = PhaseProgram::new(3);
        for i in 0..phases {
            p.push_phase(vec![
                PhaseWork {
                    compute: DurationNs(100 + 17 * i as u64),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(250),
                    accesses: vec![],
                },
                PhaseWork {
                    compute: DurationNs(40 + 3 * i as u64),
                    accesses: vec![],
                },
            ]);
        }
        p.record()
    }

    #[test]
    fn program_stream_compiles_identically() {
        let pt = skewed_program(5);
        let opts = TranslateOptions::default();
        let expected = CompiledProgram::compile(&translate(&pt, opts).unwrap()).unwrap();
        let bytes = format::encode_program(&pt);
        let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
        let (program, stats) = compile_program_stream(&mut stream, opts).unwrap();
        assert_eq!(program, expected);
        assert_eq!(stats.records, pt.records.len() as u64);
    }

    /// The machinery-residency probe (mirroring the streaming-lint
    /// probe): growing the record count ~10x by adding epochs — same
    /// per-epoch structure — must not grow the translate machinery's
    /// peak residency.  The compiled program (the output) does grow;
    /// that is not what `TranslateStats` measures.
    #[test]
    fn streaming_residency_is_bounded_by_structure_not_records() {
        let probe = |phases: usize| -> (usize, usize) {
            let pt = skewed_program(phases);
            let bytes = format::encode_program(&pt);
            let mut stream = ProgramStream::new(SliceSource(&bytes)).unwrap();
            let (_, stats) = compile_program_stream(&mut stream, Default::default()).unwrap();
            (stats.peak_resident_bytes, pt.records.len())
        };
        let (small_peak, small_len) = probe(30);
        let (big_peak, big_len) = probe(300);
        assert!(
            big_len >= small_len * 9,
            "probe traces must differ by ~10x in record count"
        );
        assert!(
            (big_peak as f64) < small_peak as f64 * 1.5,
            "streaming pipeline residency grew with record count: \
             {small_peak} -> {big_peak} bytes for {small_len} -> {big_len} records"
        );
    }
}
