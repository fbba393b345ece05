//! SOP-based multilevel synthesis — the conventional (SIS/MIS) baseline.
//!
//! The paper compares its FPRM flow against the best of the SIS 1.2
//! scripts. This crate rebuilds that comparator from scratch: the
//! Brayton–McMullen algebraic toolbox ([`algebra`]: weak division, kernel
//! extraction, good-factor), the SIS network-of-SOP-nodes representation
//! ([`SopNet`] with `eliminate`, `extract`, `resubstitute`, `simplify`),
//! and a packaged [`script_algebraic`] flow that mirrors the head of the
//! SIS `algebraic` script without its `resub` step, which finds nothing
//! after extraction on the Table 2 circuits. `resubstitute` serves the
//! FPRM flow's sharing pass.
//!
//! # Examples
//!
//! ```
//! use xsynth_boolean::Sop;
//! use xsynth_sop::algebra;
//!
//! // (a+b)(c+d) recovered from its flat SOP
//! let f = Sop::from_literals([([0, 2], []), ([0, 3], []), ([1, 2], []), ([1, 3], [])]);
//! let f = f.expect("positive cubes");
//! let fac = algebra::factor(&f);
//! assert_eq!(fac.num_literals(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
#[cfg(test)]
mod oracle;
mod script;
mod sopnet;

pub use script::{script_algebraic, script_algebraic_traced, ScriptOptions};
pub use sopnet::{emit_factored, SopNet};
