//! Multilevel logic synthesis for arithmetic functions — the core of the
//! reproduction of *Tsai & Marek-Sadowska, "Multilevel Logic Synthesis for
//! Arithmetic Functions", DAC 1996*.
//!
//! The flow synthesizes multilevel networks directly from the
//! fixed-polarity Reed-Muller (FPRM) forms of the specification:
//!
//! 1. **FPRM generation** — per-output ROBDDs are converted to OFDDs under
//!    a searched polarity vector ([`xsynth_ofdd`], [`PolarityMode`]);
//! 2. **algebraic factorization** in GF(2) — the cube method
//!    ([`factor_cubes`], rules (a)–(e) in [`Gexpr::apply_rules`]) or the
//!    OFDD method ([`ofdd_to_network`]);
//! 3. **XOR redundancy removal** — simulation of the paper's decidable
//!    pattern family ([`paper_patterns`]) classifies each XOR gate's input
//!    classes as testable or not, and untestable classes collapse the gate
//!    to OR/AND ([`remove_redundancy`], Properties 1–7), with every
//!    rewrite verified against the specification ([`EquivChecker`]).
//!
//! The entry point is [`try_synthesize`]; nothing is kept between calls.
//! Every operation has one fallible form: budget trips, verification
//! failures and malformed inputs come back as a typed [`Error`].
//!
//! # Examples
//!
//! ```
//! use xsynth_core::{try_synthesize, SynthOptions};
//! use xsynth_net::{GateKind, Network};
//!
//! // carry = ab ⊕ (a⊕b)c — redundancy removal turns the outer XOR into OR
//! let mut spec = Network::new("carry");
//! let a = spec.add_input("a");
//! let b = spec.add_input("b");
//! let c = spec.add_input("c");
//! let ab = spec.add_gate(GateKind::And, vec![a, b]);
//! let axb = spec.add_gate(GateKind::Xor, vec![a, b]);
//! let t = spec.add_gate(GateKind::And, vec![axb, c]);
//! let cout = spec.add_gate(GateKind::Or, vec![ab, t]);
//! spec.add_output("cout", cout);
//! let outcome = try_synthesize(&spec, &SynthOptions::default())?;
//! for m in 0..8 {
//!     assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
//! }
//! # Ok::<(), xsynth_core::Error>(())
//! ```
//!
//! Every run is traced — `outcome.report.trace` holds the structured span
//! tree (see [`xsynth_trace`]) and `outcome.report.profile` the per-phase
//! wall-clock breakdown.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atpg;
mod budget;
mod error;
mod expr;
mod factor;
pub mod gfx;
mod patterns;
mod redundancy;
mod synth;
mod verify;

pub use budget::{Budget, BudgetExceeded, Resource};
pub use error::Error;
pub use expr::Gexpr;
pub use factor::{
    disjoint_groups, factor_cubes, factor_cubes_traced, literal_supplier, ofdd_to_network,
};
pub use patterns::{merge_patterns, paper_patterns};
pub use redundancy::remove_redundancy;
pub use synth::{
    phase, try_synthesize, CacheUse, FactorMethod, PhaseProfile, PhaseStat, PolarityMode,
    SalvageRecord, SalvageRung, SynthOptions, SynthOptionsBuilder, SynthOutcome, SynthReport,
};
pub use verify::{network_bdds, prove_equivalence, EquivChecker, VerifyStatus};

/// The one-line import for typical users of the synthesis stack.
///
/// # Examples
///
/// ```
/// use xsynth_core::prelude::*;
/// use xsynth_net::{GateKind, Network};
///
/// let mut spec = Network::new("f");
/// let a = spec.add_input("a");
/// let b = spec.add_input("b");
/// let g = spec.add_gate(GateKind::Xor, vec![a, b]);
/// spec.add_output("f", g);
/// let opts = SynthOptions::builder().method(FactorMethod::Ofdd).build();
/// let SynthOutcome { network, report } = try_synthesize(&spec, &opts)?;
/// assert_eq!(network.eval_u64(1), spec.eval_u64(1));
/// assert!(!report.outputs.is_empty());
/// # Ok::<(), Error>(())
/// ```
pub mod prelude {
    pub use crate::budget::{Budget, BudgetExceeded};
    pub use crate::error::Error;
    pub use crate::synth::{
        phase, try_synthesize, CacheUse, FactorMethod, PhaseProfile, PolarityMode, SalvageRecord,
        SalvageRung, SynthOptions, SynthOutcome, SynthReport,
    };
    pub use xsynth_trace::{Trace, TraceBuffer, TraceSink};
}
