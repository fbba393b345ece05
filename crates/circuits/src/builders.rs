//! Shared construction helpers for benchmark circuits.

use xsynth_boolean::{mask_ones, Sop, TruthTable};
use xsynth_net::{GateKind, Network, SignalId};

/// Builds a flat two-level (PLA-style) network from per-output truth
/// tables over a shared input set — the form the IWLS'91 two-level
/// benchmarks arrive in.
///
/// # Panics
///
/// Panics if the tables disagree on input count.
pub fn two_level(name: &str, tables: &[TruthTable]) -> Network {
    let n = tables.first().map_or(0, TruthTable::num_vars);
    let mut net = Network::new(name);
    let inputs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
    let mut not_cache: Vec<Option<SignalId>> = vec![None; n];
    for (o, t) in tables.iter().enumerate() {
        assert_eq!(t.num_vars(), n, "table arity mismatch");
        let cover = Sop::isop(t);
        let mut cube_sigs = Vec::new();
        for cube in cover.cubes() {
            let mut lits = Vec::new();
            for v in mask_ones(cube.positive()) {
                lits.push(inputs[v]);
            }
            for v in mask_ones(cube.negative()) {
                let sig = match not_cache[v] {
                    Some(s) => s,
                    None => {
                        let ng = net.add_gate(GateKind::Not, vec![inputs[v]]);
                        not_cache[v] = Some(ng);
                        ng
                    }
                };
                lits.push(sig);
            }
            cube_sigs.push(match lits.len() {
                0 => net.add_gate(GateKind::Const1, vec![]),
                1 => lits[0],
                _ => net.add_gate(GateKind::And, lits),
            });
        }
        let sig = match cube_sigs.len() {
            0 => net.add_gate(GateKind::Const0, vec![]),
            1 => cube_sigs[0],
            _ => net.add_gate(GateKind::Or, cube_sigs),
        };
        net.add_output(format!("y{o}"), sig);
    }
    net
}

/// Truth tables of a word-level function `f(x) = y` where `x` is the
/// `n`-bit input word and the result is truncated to `out_bits`.
pub fn word_function(n: usize, out_bits: usize, f: impl Fn(u64) -> u64) -> Vec<TruthTable> {
    (0..out_bits)
        .map(|bit| TruthTable::from_fn(n, |m| f(m) & (1 << bit) != 0))
        .collect()
}

/// Adds a bus of named inputs.
pub fn bus(net: &mut Network, prefix: &str, n: usize) -> Vec<SignalId> {
    (0..n)
        .map(|i| net.add_input(format!("{prefix}{i}")))
        .collect()
}

/// Builds one full-adder stage, returning `(sum, carry_out)`.
pub fn full_adder(
    net: &mut Network,
    a: SignalId,
    b: SignalId,
    cin: Option<SignalId>,
) -> (SignalId, SignalId) {
    match cin {
        None => {
            let s = net.add_gate(GateKind::Xor, vec![a, b]);
            let c = net.add_gate(GateKind::And, vec![a, b]);
            (s, c)
        }
        Some(c) => {
            let axb = net.add_gate(GateKind::Xor, vec![a, b]);
            let s = net.add_gate(GateKind::Xor, vec![axb, c]);
            let ab = net.add_gate(GateKind::And, vec![a, b]);
            let t = net.add_gate(GateKind::And, vec![axb, c]);
            let co = net.add_gate(GateKind::Or, vec![ab, t]);
            (s, co)
        }
    }
}

/// Adds two interleaved buses (`a0 b0 a1 b1 …`) — the input order that
/// keeps adder BDDs/OFDDs linear, as the multilevel IWLS adder listings do.
pub fn interleaved_buses(
    net: &mut Network,
    pa: &str,
    pb: &str,
    n: usize,
) -> (Vec<SignalId>, Vec<SignalId>) {
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for i in 0..n {
        a.push(net.add_input(format!("{pa}{i}")));
        b.push(net.add_input(format!("{pb}{i}")));
    }
    (a, b)
}

/// Builds a ripple-carry adder over existing buses; returns `(sums, cout)`.
pub fn ripple_adder(
    net: &mut Network,
    a: &[SignalId],
    b: &[SignalId],
    cin: Option<SignalId>,
) -> (Vec<SignalId>, SignalId) {
    assert_eq!(a.len(), b.len(), "bus width mismatch");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let (s, c) = full_adder(net, a[i], b[i], carry);
        sums.push(s);
        carry = Some(c);
    }
    (sums, carry.expect("non-empty buses"))
}

/// A 2:1 multiplexer: `sel ? a : b`.
pub fn mux2(net: &mut Network, sel: SignalId, a: SignalId, b: SignalId) -> SignalId {
    let ns = net.add_gate(GateKind::Not, vec![sel]);
    let ta = net.add_gate(GateKind::And, vec![sel, a]);
    let tb = net.add_gate(GateKind::And, vec![ns, b]);
    net.add_gate(GateKind::Or, vec![ta, tb])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_matches_tables() {
        let t0 = TruthTable::from_fn(4, |m| m % 3 == 0);
        let t1 = TruthTable::from_fn(4, |m| m.count_ones() == 2);
        let net = two_level("tl", &[t0.clone(), t1.clone()]);
        let got = net.to_truth_tables();
        assert_eq!(got[0], t0);
        assert_eq!(got[1], t1);
    }

    #[test]
    fn ripple_adder_adds() {
        let mut net = Network::new("add4");
        let a = bus(&mut net, "a", 4);
        let b = bus(&mut net, "b", 4);
        let (s, c) = ripple_adder(&mut net, &a, &b, None);
        for (i, &x) in s.iter().enumerate() {
            net.add_output(format!("s{i}"), x);
        }
        net.add_output("cout", c);
        for m in 0..256u64 {
            let (x, y) = (m & 0xf, (m >> 4) & 0xf);
            let out = net.eval_u64(m);
            let got: u64 = out.iter().enumerate().map(|(k, &v)| (v as u64) << k).sum();
            assert_eq!(got, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn word_function_square() {
        let ts = word_function(3, 6, |x| x * x);
        let net = two_level("sq", &ts);
        for m in 0..8u64 {
            let out = net.eval_u64(m);
            let got: u64 = out.iter().enumerate().map(|(k, &v)| (v as u64) << k).sum();
            assert_eq!(got, m * m);
        }
    }

    #[test]
    fn mux_selects() {
        let mut net = Network::new("m");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = mux2(&mut net, s, a, b);
        net.add_output("y", y);
        assert!(net.eval_u64(0b011)[0]); // s=1 → a=1
        assert!(!net.eval_u64(0b010)[0]); // s=0 → b=0
        assert!(net.eval_u64(0b100)[0]); // s=0 → b=1
    }
}
