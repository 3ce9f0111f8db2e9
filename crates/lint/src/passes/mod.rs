//! The pass registry: what a lint pass is and what it runs over.
//!
//! Trace passes drive the record-at-a-time machines in
//! [`crate::stream`] over decoded records.

use crate::diag::Report;
use extrap_core::SimParams;
use extrap_trace::{ProgramTrace, TraceSet};

mod model;
mod soundness;
mod wellformed;

pub use model::ModelSanity;
pub use soundness::TranslationSoundness;
pub use wellformed::WellFormedness;

/// What a lint run inspects.  Trace passes see one of the two trace
/// shapes; parameter passes see a [`SimParams`].  A pass that does not
/// apply to the given target simply emits nothing.
#[derive(Clone, Copy, Debug)]
pub enum Target<'a> {
    /// A 1-processor *n*-thread program trace (pre-translation).
    Program(&'a ProgramTrace),
    /// A translated per-thread trace set (post-translation).
    Set(&'a TraceSet),
    /// A simulation parameter set / machine configuration.
    Params(&'a SimParams),
}

/// One static check, run over a [`Target`], appending to a [`Report`].
pub trait Pass {
    /// Stable pass name (for `--explain`-style docs and debugging).
    fn name(&self) -> &'static str;
    /// Runs the pass.
    fn run(&self, target: &Target<'_>, report: &mut Report);
}
