//! Deterministic single-stuck-at test generation (the "conventional test
//! generation" the paper's flow makes unnecessary).
//!
//! The paper claims its networks come with a complete test set read off
//! the FPRM cubes, with no ATPG run. To *quantify* that claim we need an
//! actual ATPG to compare against; this module provides a complete one
//! built on the workspace's ROBDD package: a fault is testable iff the
//! XOR of the good and faulty output functions is satisfiable, and any
//! satisfying assignment is a test. Unsatisfiability is a proof of
//! redundancy — exact, no aborts (within the BDD size limits of the
//! benchmark family).

use crate::error::Error;
use crate::verify::{budget_error, output_bdds};
use xsynth_bdd::{Bdd, BddManager};
use xsynth_net::Network;
use xsynth_sim::fault::Fault;
use xsynth_sim::{fault_simulate, Pattern};

/// The outcome of a test-generation run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// A compacted test set detecting every testable target fault.
    pub tests: Vec<Pattern>,
    /// Faults proven untestable (redundant wires).
    pub redundant: Vec<Fault>,
}

impl AtpgResult {
    /// Fault coverage over the targeted faults.
    pub fn coverage(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            (total - self.redundant.len()) as f64 / total as f64
        }
    }
}

/// Generates a test for one fault: any input assignment on which some
/// output of the faulty network differs from the good one, or `None` when
/// the fault is provably redundant.
///
/// # Errors
///
/// A combinational cycle in `net`; the BDDs are built uncapped, so no
/// budget applies.
pub fn generate_test(net: &Network, fault: Fault) -> Result<Option<Pattern>, Error> {
    let mut bm = BddManager::new(net.inputs().len());
    let good = output_bdds(net, &mut bm, None)?;
    let bad = output_bdds(net, &mut bm, Some(fault))?;
    let mut diff = Bdd::ZERO;
    for (&g, &b) in good.iter().zip(bad.iter()) {
        let x = bm.xor(g, b).map_err(|_| budget_error(&bm))?;
        diff = bm.or(diff, x).map_err(|_| budget_error(&bm))?;
    }
    Ok(bm.any_sat(diff))
}

/// Complete test generation for a fault list: fault-simulates the
/// accumulated test set first (so easy faults ride along for free), runs
/// the BDD ATPG on the survivors, and returns the compacted set plus the
/// proven-redundant faults.
///
/// # Errors
///
/// As [`generate_test`].
pub fn generate_tests(net: &Network, faults: &[Fault]) -> Result<AtpgResult, Error> {
    let mut tests: Vec<Pattern> = Vec::new();
    let mut redundant = Vec::new();
    let mut remaining: Vec<Fault> = faults.to_vec();
    while !remaining.is_empty() {
        // drop everything the current set already detects
        if !tests.is_empty() {
            let rep = fault_simulate(net, &tests, &remaining);
            remaining = rep.undetected;
        }
        let Some(&target) = remaining.first() else {
            break;
        };
        match generate_test(net, target)? {
            Some(p) => tests.push(p),
            None => {
                redundant.push(target);
                remaining.remove(0);
            }
        }
    }
    Ok(AtpgResult { tests, redundant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;
    use xsynth_sim::fault::FaultSite;
    use xsynth_sim::{enumerate_faults, exhaustive_patterns};

    fn xor_as_aoi() -> Network {
        let mut n = Network::new("xor_aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, vec![a]);
        let nb = n.add_gate(GateKind::Not, vec![b]);
        let l = n.add_gate(GateKind::And, vec![a, nb]);
        let r = n.add_gate(GateKind::And, vec![na, b]);
        let o = n.add_gate(GateKind::Or, vec![l, r]);
        n.add_output("y", o);
        n
    }

    #[test]
    fn complete_set_for_irredundant_circuit() {
        let net = xor_as_aoi();
        let faults = enumerate_faults(&net);
        let result = generate_tests(&net, &faults).unwrap();
        assert!(result.redundant.is_empty(), "{:?}", result.redundant);
        // the generated set must detect every fault
        let rep = fault_simulate(&net, &result.tests, &faults);
        assert_eq!(rep.undetected, vec![]);
        // Hayes: a two-input XOR needs all four patterns
        assert_eq!(result.tests.len(), 4);
    }

    #[test]
    fn redundancy_is_proven() {
        // y = a·b + a·b: the duplicate's wire is untestable
        let mut net = Network::new("red");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, vec![a, b]);
        let g2 = net.add_gate(GateKind::And, vec![a, b]);
        let o = net.add_gate(GateKind::Or, vec![g1, g2]);
        net.add_output("y", o);
        let f = Fault {
            site: FaultSite::Fanin(o, 1),
            stuck_at: false,
        };
        assert_eq!(generate_test(&net, f).unwrap(), None, "provably redundant");
        // but the OR output itself is testable
        let f2 = Fault {
            site: FaultSite::Output(o),
            stuck_at: false,
        };
        let p = generate_test(&net, f2).unwrap().expect("testable");
        assert_eq!(p, vec![true, true]);
        let _ = g2;
    }

    #[test]
    fn atpg_matches_exhaustive_verdicts() {
        // every fault ATPG calls testable must be detected exhaustively,
        // and vice versa
        let net = xor_as_aoi();
        let faults = enumerate_faults(&net);
        let exhaustive = fault_simulate(&net, &exhaustive_patterns(2), &faults);
        for &f in &faults {
            let atpg_testable = generate_test(&net, f).unwrap().is_some();
            let sim_testable = !exhaustive.undetected.contains(&f);
            assert_eq!(atpg_testable, sim_testable, "{f}");
        }
    }

    #[test]
    fn input_stuck_faults_handled() {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        net.add_output("y", a);
        let f = Fault {
            site: FaultSite::Output(a),
            stuck_at: true,
        };
        let p = generate_test(&net, f)
            .unwrap()
            .expect("input stuck-at-1 testable");
        assert_eq!(p, vec![false]);
    }

    #[test]
    fn synthesized_benchmark_gets_compact_complete_set() {
        let spec = xsynth_circuits_stub();
        let out = crate::try_synthesize(&spec, &crate::SynthOptions::default())
            .unwrap()
            .network;
        let faults = enumerate_faults(&out);
        let result = generate_tests(&out, &faults).unwrap();
        let rep = fault_simulate(&out, &result.tests, &faults);
        assert_eq!(
            rep.undetected.len(),
            result.redundant.len(),
            "exactly the proven-redundant faults stay undetected"
        );
        assert!(result.tests.len() <= faults.len() / 2, "compaction works");
    }

    /// A small arithmetic spec without depending on the circuits crate
    /// (cycle avoidance): a 2-bit adder.
    fn xsynth_circuits_stub() -> Network {
        let mut net = Network::new("add2");
        let a0 = net.add_input("a0");
        let b0 = net.add_input("b0");
        let a1 = net.add_input("a1");
        let b1 = net.add_input("b1");
        let s0 = net.add_gate(GateKind::Xor, vec![a0, b0]);
        let c0 = net.add_gate(GateKind::And, vec![a0, b0]);
        let s1 = net.add_gate(GateKind::Xor, vec![a1, b1, c0]);
        let t1 = net.add_gate(GateKind::And, vec![a1, b1]);
        let x1 = net.add_gate(GateKind::Xor, vec![a1, b1]);
        let t2 = net.add_gate(GateKind::And, vec![x1, c0]);
        let c1 = net.add_gate(GateKind::Or, vec![t1, t2]);
        net.add_output("s0", s0);
        net.add_output("s1", s1);
        net.add_output("cout", c1);
        net
    }
}
