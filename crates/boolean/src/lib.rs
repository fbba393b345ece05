//! Boolean function substrate for the `xsynth` workspace.
//!
//! This crate provides the ground-truth representations used by every other
//! crate in the reproduction of *Multilevel Logic Synthesis for Arithmetic
//! Functions* (Tsai & Marek-Sadowska, DAC 1996):
//!
//! * [`VarSet`] — compact variable sets,
//! * [`TruthTable`] — bit-parallel complete truth tables,
//! * [`Sop`] / [`Cube`] — sum-of-products covers stored as rows of literal
//!   masks, and their cubes as borrowed rows,
//! * [`Polarity`] / [`Fprm`] / [`Spectrum`] — fixed-polarity Reed-Muller
//!   forms with the fast Davio transform, polarity search, and prime-cube
//!   analysis,
//! * [`CubeRows`] — cube lists as fixed-stride rows of literal masks,
//! * [`FxHashMap`] / [`FxHashSet`] — maps under one fixed, fast hasher
//!   for internal integer and bitset keys.
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
mod hash;
mod rows;
mod sop;
mod tt;
mod varset;

pub use cube::Cube;
pub use fprm::{Fprm, Polarity, Spectrum};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use rows::{mask_ones, CubeRows};
pub use sop::Sop;
pub use tt::{TruthTable, MAX_TT_VARS};
pub use varset::{Iter as VarSetIter, VarSet};
