//! GF(2) factored expressions and the paper's Reduction/Factorization
//! rules (Section 3).
//!
//! The cube-method factorization produces a [`Gexpr`] — an AND/OR/XOR/NOT
//! expression over *literals in polarity space* (a literal is just a
//! variable index; its phase is supplied by the function's polarity vector
//! when the expression is lowered to a network). The rewrite rules are:
//!
//! * (a) `A ⊕ AB = A·¬B`
//! * (b) `AB ⊕ AC ⊕ ABC = A(B + C)` (applied after common factors are
//!   pulled out, so the instance matched here is `X ⊕ Y ⊕ XY = X + Y`)
//! * (c) `AB ⊕ ¬B = A + ¬B`

use std::fmt;
use xsynth_net::{GateKind, Network, SignalId};

/// A factored expression over GF(2) with AND/OR/XOR/NOT connectives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gexpr {
    /// Constant zero.
    Zero,
    /// Constant one.
    One,
    /// A literal: the variable's phase comes from the function's polarity
    /// vector at lowering time.
    Lit(usize),
    /// Complement.
    Not(Box<Gexpr>),
    /// Product.
    And(Vec<Gexpr>),
    /// Disjunction (only introduced by the reduction rules).
    Or(Vec<Gexpr>),
    /// GF(2) sum.
    Xor(Vec<Gexpr>),
}

impl Gexpr {
    /// Builds a product of literals (a cube term).
    pub fn cube<I: IntoIterator<Item = usize>>(vars: I) -> Gexpr {
        let lits: Vec<Gexpr> = vars.into_iter().map(Gexpr::Lit).collect();
        match lits.len() {
            0 => Gexpr::One,
            1 => lits.into_iter().next().expect("one element"),
            _ => Gexpr::And(lits),
        }
    }

    /// Number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        match self {
            Gexpr::Zero | Gexpr::One => 0,
            Gexpr::Lit(_) => 1,
            Gexpr::Not(x) => x.num_literals(),
            Gexpr::And(xs) | Gexpr::Or(xs) | Gexpr::Xor(xs) => {
                xs.iter().map(Gexpr::num_literals).sum()
            }
        }
    }

    /// Number of XOR operators (each `Xor` of `k` children counts `k−1`).
    pub fn num_xor_ops(&self) -> usize {
        match self {
            Gexpr::Zero | Gexpr::One | Gexpr::Lit(_) => 0,
            Gexpr::Not(x) => x.num_xor_ops(),
            Gexpr::And(xs) | Gexpr::Or(xs) => xs.iter().map(Gexpr::num_xor_ops).sum(),
            Gexpr::Xor(xs) => {
                xs.len().saturating_sub(1) + xs.iter().map(Gexpr::num_xor_ops).sum::<usize>()
            }
        }
    }

    /// Evaluates against a *literal* environment: `env(v)` is the value of
    /// the polarity-adjusted literal of variable `v`.
    pub fn eval(&self, env: &dyn Fn(usize) -> bool) -> bool {
        match self {
            Gexpr::Zero => false,
            Gexpr::One => true,
            Gexpr::Lit(v) => env(*v),
            Gexpr::Not(x) => !x.eval(env),
            Gexpr::And(xs) => xs.iter().all(|x| x.eval(env)),
            Gexpr::Or(xs) => xs.iter().any(|x| x.eval(env)),
            Gexpr::Xor(xs) => xs.iter().fold(false, |a, x| a ^ x.eval(env)),
        }
    }

    /// Canonicalizes the expression: flattens nested associative operators,
    /// folds constants, sorts children of commutative operators and cancels
    /// duplicate XOR operands.
    pub fn normalize(self) -> Gexpr {
        match self {
            Gexpr::Zero | Gexpr::One | Gexpr::Lit(_) => self,
            Gexpr::Not(x) => match x.normalize() {
                Gexpr::Zero => Gexpr::One,
                Gexpr::One => Gexpr::Zero,
                Gexpr::Not(inner) => *inner,
                other => Gexpr::Not(Box::new(other)),
            },
            Gexpr::And(xs) => {
                let mut kids = Vec::new();
                for x in xs {
                    match x.normalize() {
                        Gexpr::Zero => return Gexpr::Zero,
                        Gexpr::One => {}
                        Gexpr::And(inner) => kids.extend(inner),
                        other => kids.push(other),
                    }
                }
                kids.sort();
                kids.dedup();
                match kids.len() {
                    0 => Gexpr::One,
                    1 => kids.into_iter().next().expect("one"),
                    _ => Gexpr::And(kids),
                }
            }
            Gexpr::Or(xs) => {
                let mut kids = Vec::new();
                for x in xs {
                    match x.normalize() {
                        Gexpr::One => return Gexpr::One,
                        Gexpr::Zero => {}
                        Gexpr::Or(inner) => kids.extend(inner),
                        other => kids.push(other),
                    }
                }
                kids.sort();
                kids.dedup();
                match kids.len() {
                    0 => Gexpr::Zero,
                    1 => kids.into_iter().next().expect("one"),
                    _ => Gexpr::Or(kids),
                }
            }
            Gexpr::Xor(xs) => {
                let mut kids: Vec<Gexpr> = Vec::new();
                let mut parity = false;
                for x in xs {
                    match x.normalize() {
                        Gexpr::Zero => {}
                        Gexpr::One => parity = !parity,
                        Gexpr::Xor(inner) => kids.extend(inner),
                        other => kids.push(other),
                    }
                }
                kids.sort();
                // a ⊕ a = 0: drop pairs
                let mut dedup: Vec<Gexpr> = Vec::new();
                for k in kids {
                    if dedup.last() == Some(&k) {
                        dedup.pop();
                    } else {
                        dedup.push(k);
                    }
                }
                let base = match dedup.len() {
                    0 => Gexpr::Zero,
                    1 => dedup.into_iter().next().expect("one"),
                    _ => Gexpr::Xor(dedup),
                };
                if parity {
                    match base {
                        Gexpr::Zero => Gexpr::One,
                        Gexpr::One => Gexpr::Zero,
                        Gexpr::Not(inner) => *inner,
                        other => Gexpr::Not(Box::new(other)),
                    }
                } else {
                    base
                }
            }
        }
    }

    /// The multiplicative factors of the expression: the children of an
    /// `And`, or the expression itself.
    fn factors(&self) -> Vec<Gexpr> {
        match self {
            Gexpr::And(xs) => xs.clone(),
            other => vec![other.clone()],
        }
    }

    fn from_factors(mut fs: Vec<Gexpr>) -> Gexpr {
        fs.sort();
        fs.dedup();
        match fs.len() {
            0 => Gexpr::One,
            1 => fs.into_iter().next().expect("one"),
            _ => Gexpr::And(fs),
        }
    }

    /// Applies the paper's Reduction rules (a)–(c) bottom-up until a fixed
    /// point (bounded by an internal iteration cap).
    pub fn apply_rules(self) -> Gexpr {
        let mut cur = self.normalize();
        for _ in 0..64 {
            let next = rewrite_once(cur.clone()).normalize();
            if next == cur {
                return cur;
            }
            cur = next;
        }
        cur
    }

    /// Lowers the expression into `net`, mapping literal `v` through
    /// `literal_sig` (which supplies the polarity-adjusted signal). XOR
    /// nodes become balanced trees of two-input XOR gates, as the
    /// redundancy analysis of Section 4 assumes.
    pub fn emit(
        &self,
        net: &mut Network,
        literal_sig: &mut dyn FnMut(&mut Network, usize) -> SignalId,
    ) -> SignalId {
        match self {
            Gexpr::Zero => net.add_gate(GateKind::Const0, vec![]),
            Gexpr::One => net.add_gate(GateKind::Const1, vec![]),
            Gexpr::Lit(v) => literal_sig(net, *v),
            Gexpr::Not(x) => {
                let s = x.emit(net, literal_sig);
                net.add_gate(GateKind::Not, vec![s])
            }
            Gexpr::And(xs) => {
                let fan: Vec<SignalId> = xs.iter().map(|x| x.emit(net, literal_sig)).collect();
                net.add_gate(GateKind::And, fan)
            }
            Gexpr::Or(xs) => {
                let fan: Vec<SignalId> = xs.iter().map(|x| x.emit(net, literal_sig)).collect();
                net.add_gate(GateKind::Or, fan)
            }
            Gexpr::Xor(xs) => {
                let mut layer: Vec<SignalId> =
                    xs.iter().map(|x| x.emit(net, literal_sig)).collect();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 1 {
                            next.push(pair[0]);
                        } else {
                            next.push(net.add_gate(GateKind::Xor, vec![pair[0], pair[1]]));
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }
}

/// One bottom-up rewrite sweep applying rules (a), (b), (c) where they
/// match inside XOR operator lists. Each rule scans the operand pairs (or
/// triples) in order and applies at the first match, then rescans; the
/// operands' factor lists are computed once per scan, not once per pair.
fn rewrite_once(e: Gexpr) -> Gexpr {
    match e {
        Gexpr::Zero | Gexpr::One | Gexpr::Lit(_) => e,
        Gexpr::Not(x) => Gexpr::Not(Box::new(rewrite_once(*x))),
        Gexpr::And(xs) => Gexpr::And(xs.into_iter().map(rewrite_once).collect()),
        Gexpr::Or(xs) => Gexpr::Or(xs.into_iter().map(rewrite_once).collect()),
        Gexpr::Xor(xs) => {
            let mut kids: Vec<Gexpr> = xs.into_iter().map(rewrite_once).collect();
            let remove = |kids: &mut Vec<Gexpr>, mut rm: Vec<usize>| {
                rm.sort_unstable_by(|a, b| b.cmp(a));
                for idx in rm {
                    kids.remove(idx);
                }
            };

            // rule (b): X ⊕ Y ⊕ XY = X + Y   (check before rule (a), which
            // would otherwise consume the X / XY pair first)
            'b: loop {
                let factors: Vec<Vec<Gexpr>> = kids.iter().map(Gexpr::factors).collect();
                let sets: Vec<Vec<Gexpr>> = factors.iter().cloned().map(sorted_set).collect();
                for i in 0..kids.len() {
                    for j in 0..kids.len() {
                        // X and Y must not share factors for XY = X∪Y
                        if i == j || factors[i].iter().any(|f| factors[j].contains(f)) {
                            continue;
                        }
                        // the factor sets are disjoint, so their union is
                        // Z's exactly when the sizes add up and Z holds both
                        let size = sets[i].len() + sets[j].len();
                        for k in 0..kids.len() {
                            if k == i || k == j || sets[k].len() != size {
                                continue;
                            }
                            let inside = |f: &Gexpr| sets[k].binary_search(f).is_ok();
                            if sets[i].iter().chain(&sets[j]).all(inside) {
                                let x = kids[i].clone();
                                let y = kids[j].clone();
                                remove(&mut kids, vec![i, j, k]);
                                kids.push(Gexpr::Or(vec![x, y]));
                                continue 'b;
                            }
                        }
                    }
                }
                break;
            }

            // rule (c): AB ⊕ ¬B = A + ¬B
            'c: loop {
                let factors: Vec<Vec<Gexpr>> = kids.iter().map(Gexpr::factors).collect();
                for i in 0..kids.len() {
                    let Gexpr::Not(b) = &kids[i] else { continue };
                    let b_factors = b.factors();
                    for (j, fj) in factors.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        // B's factors must all be in the product
                        if b_factors.iter().all(|f| fj.contains(f)) && fj.len() > b_factors.len() {
                            let a_factors: Vec<Gexpr> = fj
                                .iter()
                                .filter(|f| !b_factors.contains(f))
                                .cloned()
                                .collect();
                            let a = Gexpr::from_factors(a_factors);
                            let nb = kids[i].clone();
                            remove(&mut kids, vec![i, j]);
                            kids.push(Gexpr::Or(vec![a, nb]));
                            continue 'c;
                        }
                    }
                }
                break;
            }

            // rule (a): A ⊕ AB = A·¬B   (A's factors strictly inside B's)
            'a: loop {
                let factors: Vec<Vec<Gexpr>> = kids.iter().map(Gexpr::factors).collect();
                for i in 0..kids.len() {
                    for j in 0..kids.len() {
                        if i == j {
                            continue;
                        }
                        let (fi, fj) = (&factors[i], &factors[j]);
                        if fi.len() < fj.len() && fi.iter().all(|f| fj.contains(f)) {
                            let b_factors: Vec<Gexpr> =
                                fj.iter().filter(|f| !fi.contains(f)).cloned().collect();
                            let b = Gexpr::from_factors(b_factors);
                            let mut new_factors = fi.clone();
                            new_factors.push(Gexpr::Not(Box::new(b)).normalize());
                            let merged = Gexpr::from_factors(new_factors);
                            remove(&mut kids, vec![i, j]);
                            kids.push(merged);
                            continue 'a;
                        }
                    }
                }
                break;
            }

            Gexpr::Xor(kids)
        }
    }
}

/// A factor list sorted, without repeats.
fn sorted_set(mut fs: Vec<Gexpr>) -> Vec<Gexpr> {
    fs.sort();
    fs.dedup();
    fs
}

impl fmt::Display for Gexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gexpr::Zero => write!(f, "0"),
            Gexpr::One => write!(f, "1"),
            Gexpr::Lit(v) => write!(f, "x{v}"),
            Gexpr::Not(x) => write!(f, "¬({x})"),
            Gexpr::And(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    if matches!(x, Gexpr::Or(_) | Gexpr::Xor(_)) {
                        write!(f, "({x})")?;
                    } else {
                        write!(f, "{x}")?;
                    }
                }
                Ok(())
            }
            Gexpr::Or(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    if matches!(x, Gexpr::Xor(_)) {
                        write!(f, "({x})")?;
                    } else {
                        write!(f, "{x}")?;
                    }
                }
                Ok(())
            }
            Gexpr::Xor(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ⊕ ")?;
                    }
                    if matches!(x, Gexpr::Or(_)) {
                        write!(f, "({x})")?;
                    } else {
                        write!(f, "{x}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod reference {
    use super::Gexpr;

    /// [`Gexpr::apply_rules`] over the reference sweep.
    pub(super) fn apply_rules(e: Gexpr) -> Gexpr {
        let mut cur = e.normalize();
        for _ in 0..64 {
            let next = rewrite_once(cur.clone()).normalize();
            if next == cur {
                return cur;
            }
            cur = next;
        }
        cur
    }

    /// The rewrite sweep as first written, re-deriving every operand's
    /// factors for each pair and triple it tries.
    pub(super) fn rewrite_once(e: Gexpr) -> Gexpr {
        match e {
            Gexpr::Zero | Gexpr::One | Gexpr::Lit(_) => e,
            Gexpr::Not(x) => Gexpr::Not(Box::new(rewrite_once(*x))),
            Gexpr::And(xs) => Gexpr::And(xs.into_iter().map(rewrite_once).collect()),
            Gexpr::Or(xs) => Gexpr::Or(xs.into_iter().map(rewrite_once).collect()),
            Gexpr::Xor(xs) => {
                let mut kids: Vec<Gexpr> = xs.into_iter().map(rewrite_once).collect();

                // rule (b): X ⊕ Y ⊕ XY = X + Y   (check before rule (a), which
                // would otherwise consume the X / XY pair first)
                'b: loop {
                    for i in 0..kids.len() {
                        for j in 0..kids.len() {
                            if i == j {
                                continue;
                            }
                            for k in 0..kids.len() {
                                if k == i || k == j {
                                    continue;
                                }
                                let fi = kids[i].factors();
                                let fj = kids[j].factors();
                                let fk = kids[k].factors();
                                let mut merged = fi.clone();
                                merged.extend(fj.clone());
                                merged.sort();
                                merged.dedup();
                                let mut fk_sorted = fk.clone();
                                fk_sorted.sort();
                                fk_sorted.dedup();
                                // X and Y must not share factors for XY = X∪Y
                                let disjoint = fi.iter().all(|f| !fj.contains(f));
                                if disjoint && merged == fk_sorted {
                                    let x = kids[i].clone();
                                    let y = kids[j].clone();
                                    let mut rm: Vec<usize> = vec![i, j, k];
                                    rm.sort_unstable_by(|a, b| b.cmp(a));
                                    for idx in rm {
                                        kids.remove(idx);
                                    }
                                    kids.push(Gexpr::Or(vec![x, y]));
                                    continue 'b;
                                }
                            }
                        }
                    }
                    break;
                }

                // rule (c): AB ⊕ ¬B = A + ¬B
                'c: loop {
                    for i in 0..kids.len() {
                        let Gexpr::Not(b) = &kids[i] else { continue };
                        let b = (**b).clone();
                        let b_factors = b.factors();
                        for j in 0..kids.len() {
                            if i == j {
                                continue;
                            }
                            let fj = kids[j].factors();
                            // B's factors must all be in the product
                            if b_factors.iter().all(|f| fj.contains(f))
                                && fj.len() > b_factors.len()
                            {
                                let a_factors: Vec<Gexpr> = fj
                                    .iter()
                                    .filter(|f| !b_factors.contains(f))
                                    .cloned()
                                    .collect();
                                let a = Gexpr::from_factors(a_factors);
                                let nb = kids[i].clone();
                                let mut rm = [i, j];
                                rm.sort_unstable_by(|x, y| y.cmp(x));
                                for idx in rm {
                                    kids.remove(idx);
                                }
                                kids.push(Gexpr::Or(vec![a, nb]));
                                continue 'c;
                            }
                        }
                    }
                    break;
                }

                // rule (a): A ⊕ AB = A·¬B   (A's factors strictly inside B's)
                'a: loop {
                    for i in 0..kids.len() {
                        for j in 0..kids.len() {
                            if i == j {
                                continue;
                            }
                            let fi = kids[i].factors();
                            let fj = kids[j].factors();
                            if fi.len() < fj.len() && fi.iter().all(|f| fj.contains(f)) {
                                let b_factors: Vec<Gexpr> =
                                    fj.iter().filter(|f| !fi.contains(f)).cloned().collect();
                                let b = Gexpr::from_factors(b_factors);
                                let mut new_factors = fi.clone();
                                new_factors.push(Gexpr::Not(Box::new(b)).normalize());
                                let merged = Gexpr::from_factors(new_factors);
                                let mut rm = [i, j];
                                rm.sort_unstable_by(|x, y| y.cmp(x));
                                for idx in rm {
                                    kids.remove(idx);
                                }
                                kids.push(merged);
                                continue 'a;
                            }
                        }
                    }
                    break;
                }

                Gexpr::Xor(kids)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_all(e: &Gexpr, n: usize) -> Vec<bool> {
        (0..(1u64 << n))
            .map(|m| e.eval(&|v| m & (1 << v) != 0))
            .collect()
    }

    #[test]
    fn rule_a_applies() {
        // x0 ⊕ x0·x1 → x0·¬x1
        let e = Gexpr::Xor(vec![Gexpr::cube([0]), Gexpr::cube([0, 1])]);
        let before = eval_all(&e, 2);
        let r = e.apply_rules();
        assert_eq!(eval_all(&r, 2), before);
        assert_eq!(r.num_xor_ops(), 0, "rule (a) must remove the XOR: {r}");
    }

    #[test]
    fn rule_b_applies() {
        // x0 ⊕ x1 ⊕ x0x1 = x0 + x1
        let e = Gexpr::Xor(vec![
            Gexpr::cube([0]),
            Gexpr::cube([1]),
            Gexpr::cube([0, 1]),
        ]);
        let before = eval_all(&e, 2);
        let r = e.apply_rules();
        assert_eq!(eval_all(&r, 2), before);
        assert_eq!(r, Gexpr::Or(vec![Gexpr::Lit(0), Gexpr::Lit(1)]));
    }

    #[test]
    fn rule_b_with_compound_terms() {
        // X ⊕ Y ⊕ XY with X = x0x1, Y = x2: → x0x1 + x2
        let e = Gexpr::Xor(vec![
            Gexpr::cube([0, 1]),
            Gexpr::cube([2]),
            Gexpr::cube([0, 1, 2]),
        ]);
        let before = eval_all(&e, 3);
        let r = e.apply_rules();
        assert_eq!(eval_all(&r, 3), before);
        assert_eq!(r.num_xor_ops(), 0, "{r}");
    }

    #[test]
    fn rule_c_applies() {
        // x0·x1 ⊕ ¬x1 = x0 + ¬x1
        let e = Gexpr::Xor(vec![
            Gexpr::cube([0, 1]),
            Gexpr::Not(Box::new(Gexpr::Lit(1))),
        ]);
        let before = eval_all(&e, 2);
        let r = e.apply_rules();
        assert_eq!(eval_all(&r, 2), before);
        assert_eq!(r.num_xor_ops(), 0, "{r}");
    }

    #[test]
    fn paper_reduction_chain() {
        // Section 4: (B ⊕ C) ⊕ BC = B + C
        let e = Gexpr::Xor(vec![
            Gexpr::Lit(0),
            Gexpr::Lit(1),
            Gexpr::And(vec![Gexpr::Lit(0), Gexpr::Lit(1)]),
        ]);
        let r = e.apply_rules();
        assert_eq!(r, Gexpr::Or(vec![Gexpr::Lit(0), Gexpr::Lit(1)]));
    }

    #[test]
    fn rules_preserve_random_functions() {
        // stress the rewriter on random small XOR expressions
        let mut seed = 12345u64;
        let mut rand = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..50 {
            let n = 4;
            let terms = 2 + rand() % 4;
            let mut kids = Vec::new();
            for _ in 0..terms {
                let sz = 1 + rand() % 3;
                let vars: Vec<usize> = (0..sz).map(|_| rand() % n).collect();
                kids.push(Gexpr::cube(vars));
            }
            let e = Gexpr::Xor(kids).normalize();
            let before = eval_all(&e, n);
            let r = e.apply_rules();
            assert_eq!(eval_all(&r, n), before, "rules changed function of {r}");
        }
    }

    #[test]
    fn normalize_cancels_xor_pairs() {
        let e = Gexpr::Xor(vec![Gexpr::Lit(0), Gexpr::Lit(0), Gexpr::Lit(1)]);
        assert_eq!(e.normalize(), Gexpr::Lit(1));
        let f = Gexpr::Xor(vec![Gexpr::Lit(0), Gexpr::One]);
        assert_eq!(f.normalize(), Gexpr::Not(Box::new(Gexpr::Lit(0))));
    }

    #[test]
    fn normalize_constant_folding() {
        let e = Gexpr::And(vec![Gexpr::Lit(0), Gexpr::Zero]);
        assert_eq!(e.normalize(), Gexpr::Zero);
        let e = Gexpr::Or(vec![Gexpr::Lit(0), Gexpr::One]);
        assert_eq!(e.normalize(), Gexpr::One);
        let e = Gexpr::Not(Box::new(Gexpr::Not(Box::new(Gexpr::Lit(3)))));
        assert_eq!(e.normalize(), Gexpr::Lit(3));
    }

    #[test]
    fn emit_builds_binary_xor_tree() {
        let e = Gexpr::Xor(vec![
            Gexpr::Lit(0),
            Gexpr::Lit(1),
            Gexpr::Lit(2),
            Gexpr::Lit(3),
        ]);
        let mut net = Network::new("t");
        let ins: Vec<SignalId> = (0..4).map(|i| net.add_input(format!("x{i}"))).collect();
        let s = e.emit(&mut net, &mut |_, v| ins[v]);
        net.add_output("y", s);
        for id in net.topo_order() {
            if net.gate_kind(id) == Some(GateKind::Xor) {
                assert_eq!(net.fanins(id).len(), 2);
            }
        }
        for m in 0..16u64 {
            assert_eq!(net.eval_u64(m)[0], (m.count_ones() % 2) == 1);
        }
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Gexpr::Xor(vec![
            Gexpr::And(vec![Gexpr::Lit(0), Gexpr::Not(Box::new(Gexpr::Lit(1)))]),
            Gexpr::Or(vec![Gexpr::Lit(2), Gexpr::Lit(3)]),
        ]);
        let s = e.to_string();
        assert!(s.contains('⊕'), "{s}");
        assert!(s.contains('+'), "{s}");
    }

    #[test]
    fn literal_count_and_xor_ops() {
        let e = Gexpr::Xor(vec![
            Gexpr::cube([0, 1]),
            Gexpr::cube([2]),
            Gexpr::cube([3, 4, 5]),
        ]);
        assert_eq!(e.num_literals(), 6);
        assert_eq!(e.num_xor_ops(), 2);
    }

    /// An expression for the rule oracle. Even seeds give the cube
    /// method's expression (rules off) for up to 10 cubes of 0–3
    /// literals from a 5-literal alphabet, the sweep's real input; odd
    /// seeds an XOR of 2–6 products of 1–2 literals over 3, a quarter of
    /// them negated, so `a ⊕ b ⊕ ab` (rule (b)) and `ab ⊕ ¬b` (rule (c))
    /// shapes are common.
    fn random_expr(seed: u64) -> Gexpr {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        if seed.is_multiple_of(2) {
            let sets: Vec<xsynth_boolean::VarSet> = (0..next(11))
                .map(|_| (0..next(4)).map(|_| next(5)).collect())
                .collect();
            return crate::factor::factor_cubes(
                &xsynth_boolean::CubeRows::from_sets(5, &sets),
                false,
            );
        }
        let kids = (0..2 + next(5))
            .map(|_| {
                let product = Gexpr::cube((0..1 + next(2)).map(|_| next(3)).collect::<Vec<_>>());
                if next(4) == 0 {
                    Gexpr::Not(Box::new(product))
                } else {
                    product
                }
            })
            .collect();
        Gexpr::Xor(kids)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(500))]

        /// The sweep that derives factor lists once per scan rewrites
        /// exactly as the one that derived them per pair and triple.
        #[test]
        fn apply_rules_matches_reference(seed in proptest::arbitrary::any::<u64>()) {
            let e = random_expr(seed);
            proptest::prop_assert_eq!(e.clone().apply_rules(), reference::apply_rules(e));
        }
    }

    /// The oracle's expressions reach every rule: (b) leaves an `Or` of
    /// two operands, (c) an `Or` with a negated one, (a) a negated factor
    /// under an `And`.
    #[test]
    fn rule_oracle_generator_reaches_every_rule() {
        fn has(e: &Gexpr, pred: &dyn Fn(&Gexpr) -> bool) -> bool {
            pred(e)
                || match e {
                    Gexpr::Not(x) => has(x, pred),
                    Gexpr::And(xs) | Gexpr::Or(xs) | Gexpr::Xor(xs) => {
                        xs.iter().any(|x| has(x, pred))
                    }
                    _ => false,
                }
        }
        let (mut or_b, mut or_c, mut and_not) = (0, 0, 0);
        for seed in 0..200 {
            let e = random_expr(seed).apply_rules();
            let negated = |xs: &[Gexpr]| xs.iter().any(|k| matches!(k, Gexpr::Not(_)));
            or_b += usize::from(has(&e, &|x| matches!(x, Gexpr::Or(xs) if !negated(xs))));
            or_c += usize::from(has(&e, &|x| matches!(x, Gexpr::Or(xs) if negated(xs))));
            and_not += usize::from(has(
                &e,
                &|x| matches!(x, Gexpr::And(xs) if xs.iter().any(|k| matches!(k, Gexpr::Not(_)))),
            ));
        }
        // (b) needs X, Y and XY in one XOR list: the rarest case, 8 of 200
        assert!(or_b >= 5, "rule (b) in {or_b}/200");
        assert!(or_c >= 10, "rule (c) in {or_c}/200");
        assert!(and_not >= 20, "rule (a) in {and_not}/200");
    }
}
