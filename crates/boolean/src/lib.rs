//! Boolean function substrate for the `xsynth` workspace.
//!
//! This crate provides the ground-truth representations used by every other
//! crate in the reproduction of *Multilevel Logic Synthesis for Arithmetic
//! Functions* (Tsai & Marek-Sadowska, DAC 1996):
//!
//! * [`VarSet`] — compact variable sets,
//! * [`TruthTable`] — bit-parallel complete truth tables,
//! * [`Cube`] / [`Sop`] — three-valued cubes and sum-of-products covers,
//! * [`Polarity`] / [`Fprm`] / [`Spectrum`] — fixed-polarity Reed-Muller
//!   forms with the fast Davio transform, polarity search, and prime-cube
//!   analysis.
//!
//! # Examples
//!
//! Derive the FPRM form of a symmetric function and inspect its cubes:
//!
//! ```
//! use xsynth_boolean::{Fprm, TruthTable};
//!
//! // 3-input majority.
//! let maj = TruthTable::symmetric(3, &[false, false, true, true]);
//! let fprm = Fprm::from_table_positive(&maj);
//! // majority(a,b,c) = ab ⊕ ac ⊕ bc
//! assert_eq!(fprm.num_cubes(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cube;
mod fprm;
mod sop;
mod tt;
mod varset;

pub use cube::Cube;
pub use fprm::{Fprm, Polarity, Spectrum};
pub use sop::Sop;
pub use tt::{TruthTable, MAX_TT_VARS};
pub use varset::{Iter as VarSetIter, VarSet};
