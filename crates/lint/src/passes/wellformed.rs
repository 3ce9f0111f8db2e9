//! Well-formedness: the structural invariants a trace must satisfy
//! before any model-level reasoning makes sense.
//!
//! * timestamps are monotone (`E001` global / `E002` per-thread);
//! * every record references a thread inside `0..n_threads` (`E003`)
//!   and trace-set positions match thread ids (`E009`);
//! * barrier entry/exit events nest properly within each thread
//!   (`E004`);
//! * remote accesses reference valid elements whose claimed owner is
//!   consistent within each barrier epoch (`E006`), with a warning for
//!   self-accesses (`W002`);
//! * phase markers agree across threads (`W001`) and every thread has
//!   its begin/end frame (`W003`).
//!
//! The pass drives the record-at-a-time [`WellFormedStream`] machine
//! ([`crate::stream`]) over the decoded trace.

use super::{Pass, Target};
use crate::diag::Report;
use crate::stream::WellFormedStream;

/// The well-formedness pass (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct WellFormedness;

impl Pass for WellFormedness {
    fn name(&self) -> &'static str {
        "well-formedness"
    }

    fn run(&self, target: &Target<'_>, report: &mut Report) {
        match target {
            Target::Program(pt) => {
                let mut m = WellFormedStream::for_program(pt.n_threads);
                for r in &pt.records {
                    m.record(r, report);
                }
                m.finish(report);
            }
            Target::Set(ts) => {
                let mut m = WellFormedStream::for_set(ts.n_threads());
                for (i, t) in ts.threads.iter().enumerate() {
                    m.begin_thread(i, t.thread, report);
                    for r in &t.records {
                        m.record(r, report);
                    }
                }
                m.finish(report);
            }
            Target::Params(_) => {}
        }
    }
}
