//! Technology mapping onto a standard-cell library.
//!
//! Reproduces the role of `map` + `mcnc.genlib` in the paper's Table 2:
//! the subject network is decomposed into a two-input AND/inverter graph,
//! 4-feasible cuts are enumerated for every node, each cut function is
//! Boolean-matched (under input permutation) against the cell library, and
//! a dynamic program picks the minimum-area cover.
//!
//! Cut functions are never evaluated from the cone: every cut carries its
//! root's function as a 16-bit truth table, composed bottom-up during
//! enumeration. An inverter complements its fanin's tables; an AND merges
//! two leaf sets, re-aligns both fanin tables onto the merged leaves, and
//! ANDs them. Every node's cuts sit in one arena, an inverter's list is
//! its fanin's passed through, and an AND composes tables only for the
//! candidates it keeps. Matching a cut is then one lookup in the library's
//! permutation index. The built-in
//! [`Library::mcnc`] mirrors the paper's library: 2-input XOR/XNOR,
//! 2-input AND/OR, NAND/NOR up to four inputs, and the four complex
//! AOI/OAI cells.
//!
//! # Examples
//!
//! ```
//! use xsynth_map::{map_network, Library};
//! use xsynth_net::{GateKind, Network};
//!
//! let mut n = Network::new("xor2");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let x = n.add_gate(GateKind::Xor, vec![a, b]);
//! n.add_output("y", x);
//! let mapped = map_network(&n, &Library::mcnc());
//! // one xor2 cell
//! assert_eq!(mapped.num_gates(), 1);
//! assert_eq!(mapped.num_literals(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod library;
mod mapper;

pub use library::{Cell, Library};
pub use mapper::{map_network, Mapping};
