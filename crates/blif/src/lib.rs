//! Readers and writers for the logic-synthesis interchange formats the
//! paper's experimental setup relies on:
//!
//! * **BLIF** (Berkeley Logic Interchange Format) — the IWLS'91 multilevel
//!   benchmark format; `.names` nodes carry sum-of-products covers.
//! * **PLA** (espresso format) — the two-level benchmark format.
//!
//! # Examples
//!
//! ```
//! use xsynth_blif::parse_blif;
//!
//! let src = "\
//! .model xor2
//! .inputs a b
//! .outputs y
//! .names a b y
//! 10 1
//! 01 1
//! .end
//! ";
//! let net = parse_blif(src)?;
//! assert_eq!(net.eval_u64(0b01), vec![true]);
//! assert_eq!(net.eval_u64(0b11), vec![false]);
//! # Ok::<(), xsynth_blif::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blif;
#[cfg(test)]
mod oracle;
mod pla;

pub use blif::{parse_blif, write_blif, MAX_CUBES_PER_COVER, MAX_INSTANTIATE_DEPTH, MAX_LINE_LEN};
pub use pla::{parse_pla, write_pla, Pla, MAX_PLA_ARITY};

use std::fmt;

/// An error produced while parsing BLIF or PLA text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line: usize,
    message: String,
}

impl ParseError {
    /// Builds an error at a 1-based line number (0 = end of input).
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where the error occurred (0 = end of input).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}
