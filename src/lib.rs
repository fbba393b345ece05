//! # xsynth — multilevel logic synthesis for arithmetic functions
//!
//! A from-scratch Rust reproduction of *Tsai & Marek-Sadowska, "Multilevel
//! Logic Synthesis for Arithmetic Functions", DAC 1996*: synthesis of
//! multilevel networks directly from fixed-polarity Reed-Muller (FPRM)
//! forms, with GF(2) algebraic factorization and simulation-driven XOR
//! redundancy removal, plus every substrate the paper's experimental setup
//! needs (ROBDDs, OFDDs, a SIS-style SOP synthesis baseline, BLIF/PLA
//! I/O, logic/fault simulation, power estimation, technology mapping, and
//! the Table 2 benchmark suite).
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here as a module.
//!
//! # Quick start
//!
//! ```
//! use xsynth::core::{try_synthesize, SynthOptions};
//! use xsynth::net::{GateKind, Network};
//!
//! // specify a full adder
//! let mut spec = Network::new("full_adder");
//! let a = spec.add_input("a");
//! let b = spec.add_input("b");
//! let cin = spec.add_input("cin");
//! let sum = spec.add_gate(GateKind::Xor, vec![a, b, cin]);
//! let ab = spec.add_gate(GateKind::And, vec![a, b]);
//! let ac = spec.add_gate(GateKind::And, vec![a, cin]);
//! let bc = spec.add_gate(GateKind::And, vec![b, cin]);
//! let cout = spec.add_gate(GateKind::Or, vec![ab, ac, bc]);
//! spec.add_output("sum", sum);
//! spec.add_output("cout", cout);
//!
//! // run the paper's FPRM flow
//! let outcome = try_synthesize(&spec, &SynthOptions::default())?;
//! assert_eq!(outcome.report.trace.counter("redundancy.reverted"), 0);
//! for m in 0..8 {
//!     assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
//! }
//! // every run carries a structured trace of the pipeline phases
//! assert!(outcome.report.trace.span_names().contains("synthesize"));
//! # Ok::<(), xsynth::core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

/// Boolean function substrate: truth tables, cubes, SOP covers, FPRM forms.
pub use xsynth_boolean as boolean;

/// Structured tracing and metrics (spans, counters, gauges, exporters).
pub use xsynth_trace as trace;

/// Reduced ordered binary decision diagrams.
pub use xsynth_bdd as bdd;

/// Ordered functional decision diagrams (fixed-polarity Davio expansion).
pub use xsynth_ofdd as ofdd;

/// Multilevel logic networks.
pub use xsynth_net as net;

/// BLIF / PLA readers and writers.
pub use xsynth_blif as blif;

/// Logic simulation, fault simulation and power estimation.
pub use xsynth_sim as sim;

/// SOP-based (SIS-style) synthesis baseline.
pub use xsynth_sop as sop;

/// The paper's FPRM synthesis flow (factorization + redundancy removal).
pub use xsynth_core as core;

/// Technology mapping onto standard-cell libraries.
pub use xsynth_map as map;

/// The Table 2 benchmark suite.
pub use xsynth_circuits as circuits;

/// Benchmark harness, telemetry schema, and regression comparison.
pub use xsynth_bench as bench;

/// The `xsynth serve` daemon: NDJSON protocol, scheduler, worker pool.
pub use xsynth_serve as serve;
