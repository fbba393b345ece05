//! The benchmark's own output check. It never calls the program's
//! equivalence checker: it simulates the returned network one vector at
//! a time with `Network::eval` and compares every output against a
//! reference, matching inputs and outputs by their original names.

use std::collections::HashMap;

use xsynth::net::Network;

use crate::gen::Rng;

/// Inputs up to this count are checked exhaustively; wider ones on
/// [`SAMPLED_VECTORS`] seeded random vectors.
pub const EXHAUSTIVE_INPUTS: usize = 12;
/// Vectors simulated for inputs wider than [`EXHAUSTIVE_INPUTS`].
pub const SAMPLED_VECTORS: usize = 4096;

/// A function from input values to output values.
type EvalFn<'a> = Box<dyn Fn(&[bool]) -> Vec<bool> + 'a>;

/// What a result must compute: named inputs and outputs, and a function
/// from input values (in `inputs` order) to output values (in `outputs`
/// order).
pub struct Reference<'a> {
    /// Input names, in the order `eval` takes them.
    pub inputs: Vec<String>,
    /// Output names, in the order `eval` returns them.
    pub outputs: Vec<String>,
    /// The reference function.
    pub eval: EvalFn<'a>,
}

impl<'a> Reference<'a> {
    /// A specification network as the reference.
    pub fn network(spec: &'a Network) -> Reference<'a> {
        Reference {
            inputs: spec
                .inputs()
                .iter()
                .map(|&s| spec.node_name(s).unwrap_or_default().to_string())
                .collect(),
            outputs: spec.outputs().iter().map(|(n, _)| n.clone()).collect(),
            eval: Box::new(|v| spec.eval(v)),
        }
    }
}

/// Checks `result` against `reference`. `original` maps each of the
/// result's signal names back to the reference's name.
///
/// # Errors
///
/// A message naming the first mismatch, or the interface difference.
pub fn check(
    result: &Network,
    original: &dyn Fn(&str) -> String,
    reference: &Reference<'_>,
    seed: u64,
) -> Result<(), String> {
    let position = |names: &[String]| -> HashMap<String, usize> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect()
    };
    let ref_in = position(&reference.inputs);
    let ref_out = position(&reference.outputs);
    let n = reference.inputs.len();
    if result.inputs().len() != n || result.outputs().len() != reference.outputs.len() {
        return Err(format!(
            "interface {}/{} differs from the reference {}/{}",
            result.inputs().len(),
            result.outputs().len(),
            n,
            reference.outputs.len()
        ));
    }
    let mut in_map = Vec::with_capacity(n);
    for &s in result.inputs() {
        let name = original(result.node_name(s).unwrap_or_default());
        in_map.push(*ref_in.get(&name).ok_or(format!("unknown input {name}"))?);
    }
    let mut out_map = Vec::with_capacity(result.outputs().len());
    for (name, _) in result.outputs() {
        let name = original(name);
        out_map.push(*ref_out.get(&name).ok_or(format!("unknown output {name}"))?);
    }
    let mut rng = Rng::new(seed);
    let vectors = if n <= EXHAUSTIVE_INPUTS {
        1usize << n
    } else {
        SAMPLED_VECTORS
    };
    let mut v = vec![false; n];
    let mut r = vec![false; n];
    for m in 0..vectors {
        for (i, bit) in v.iter_mut().enumerate() {
            *bit = if n <= EXHAUSTIVE_INPUTS {
                (m >> i) & 1 == 1
            } else {
                rng.next_u64() & 1 == 1
            };
        }
        for (i, &j) in in_map.iter().enumerate() {
            r[i] = v[j];
        }
        let want = (reference.eval)(&v);
        for (o, got) in result.eval(&r).into_iter().enumerate() {
            if got != want[out_map[o]] {
                return Err(format!(
                    "output {} differs from the reference on vector {m}",
                    reference.outputs[out_map[o]]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth::net::GateKind;

    fn xor_and(name_a: &str, name_b: &str, swap_inputs: bool) -> Network {
        let mut net = Network::new("f");
        let (a, b) = if swap_inputs {
            let b = net.add_input(name_b);
            (net.add_input(name_a), b)
        } else {
            let a = net.add_input(name_a);
            (a, net.add_input(name_b))
        };
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let y = net.add_gate(GateKind::And, vec![a, b]);
        net.add_output("s", x);
        net.add_output("c", y);
        net
    }

    #[test]
    fn matches_by_name_and_catches_a_wrong_gate() {
        let spec = xor_and("a", "b", false);
        let reference = Reference::network(&spec);
        let same = |s: &str| s.to_string();
        // declared in another order: still equivalent by name
        assert_eq!(
            check(&xor_and("a", "b", true), &same, &reference, 1),
            Ok(())
        );
        // renamed inputs mapped back
        let back = |s: &str| match s {
            "p" => "a".to_string(),
            "q" => "b".to_string(),
            other => other.to_string(),
        };
        assert_eq!(
            check(&xor_and("p", "q", false), &back, &reference, 1),
            Ok(())
        );
        // a wrong gate is a mismatch
        let mut bad = Network::new("f");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let x = bad.add_gate(GateKind::Or, vec![a, b]);
        let y = bad.add_gate(GateKind::And, vec![a, b]);
        bad.add_output("s", x);
        bad.add_output("c", y);
        assert!(check(&bad, &same, &reference, 1).is_err());
        // an unknown output name is an interface error
        assert!(check(&xor_and("a", "z", false), &same, &reference, 1).is_err());
    }
}
