//! Seeded job generation. `--seed` is the only workload input: it fixes
//! every signal and model name the program sees (and the in-process job
//! order). The function set itself is fixed, so quality totals are the
//! same for every seed and any change in them is a change in the program.

use std::collections::HashMap;
use std::fmt::Write as _;

use xsynth::blif::write_blif;
use xsynth::circuits::builders::{two_level, word_function};
use xsynth::net::Network;

/// splitmix64: a small, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// BLIF lines whose tokens after the keyword are signal or model names.
const NAME_LINES: [&str; 4] = [".model", ".inputs", ".outputs", ".names"];

/// Rewrites every name token of a BLIF text through `map`; tokens the
/// map does not hold, and cover rows, are copied unchanged.
pub fn map_names(text: &str, map: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let mut tokens = line.split_ascii_whitespace();
        match tokens.next() {
            Some(kw) if NAME_LINES.contains(&kw) => {
                out.push_str(kw);
                for t in tokens {
                    out.push(' ');
                    out.push_str(map.get(t).map_or(t, String::as_str));
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// One job as the program receives it: a BLIF text whose model and
/// signals carry fresh seeded names, plus the way back to the originals.
#[derive(Debug, Clone, PartialEq)]
pub struct Prepared {
    /// Index of the source input (circuit or arithmetic function).
    pub input: usize,
    /// The renamed BLIF text.
    pub blif: String,
    /// Fresh name → original name.
    pub original: HashMap<String, String>,
}

impl Prepared {
    /// The original name of a (possibly renamed) signal.
    pub fn original_name<'a>(&'a self, name: &'a str) -> &'a str {
        self.original.get(name).map_or(name, String::as_str)
    }
}

/// Gives every model and signal name of `text` a fresh seeded name.
pub fn rename(input: usize, text: &str, rng: &mut Rng) -> Prepared {
    let mut fresh: HashMap<String, String> = HashMap::new();
    let mut original: HashMap<String, String> = HashMap::new();
    for line in text.lines() {
        let mut tokens = line.split_ascii_whitespace();
        if !tokens.next().is_some_and(|kw| NAME_LINES.contains(&kw)) {
            continue;
        }
        for t in tokens {
            if fresh.contains_key(t) {
                continue;
            }
            let name = loop {
                let mut s = String::from("v");
                write!(s, "{:010x}", rng.next_u64() >> 24).expect("writing to a String");
                if !original.contains_key(&s) {
                    break s;
                }
            };
            original.insert(name.clone(), t.to_string());
            fresh.insert(t.to_string(), name);
        }
    }
    Prepared {
        input,
        blif: map_names(text, &fresh),
        original,
    }
}

/// One pass of jobs over `texts`, in input order, every job freshly
/// renamed. The order stays fixed: over two connections the pass time
/// is a makespan, which a shuffle would move by whole jobs.
pub fn pass(texts: &[String], rng: &mut Rng) -> Vec<Prepared> {
    texts
        .iter()
        .enumerate()
        .map(|(i, t)| rename(i, t, rng))
        .collect()
}

/// An arithmetic function of the classes the paper targets, over one
/// input word: operand `a` in the low bits, then `b`, then a carry-in
/// for `add`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arith {
    /// `add`, `sub`, `mul`, `square`, `absdiff`, `mulk`, `mod` or `cmp`.
    pub family: &'static str,
    /// Operand widths in bits (one operand for `square` and `mod`).
    pub widths: Vec<usize>,
    /// The family's constant: an offset, a multiplier or a modulus.
    pub k: u64,
}

impl Arith {
    /// Number of input bits.
    pub fn inputs(&self) -> usize {
        self.widths.iter().sum::<usize>() + usize::from(self.family == "add")
    }

    /// The function value on input word `m`.
    pub fn eval(&self, m: u64) -> u64 {
        let field = |lo: usize, w: usize| (m >> lo) & ((1 << w) - 1);
        let a = field(0, self.widths[0]);
        let wa = self.widths[0];
        let b = self.widths.get(1).map_or(0, |&wb| field(wa, wb));
        let wide = wa.max(self.widths.get(1).copied().unwrap_or(0)) + 1;
        let k = self.k;
        match self.family {
            "add" => a + b + field(self.inputs() - 1, 1) + k,
            "sub" => (a as i64 - b as i64 - k as i64).rem_euclid(1 << wide) as u64,
            "mul" => a * b + k,
            "square" => (a + k) * (a + k),
            "absdiff" => a.abs_diff(b + k),
            "mulk" => a * k + b,
            "mod" => a % k,
            "cmp" => {
                let rhs = b + k;
                u64::from(a < rhs) | (u64::from(a == rhs) << 1) | (u64::from(a > rhs) << 2)
            }
            other => unreachable!("unknown family {other}"),
        }
    }

    /// Output bits: enough for the largest value the function takes.
    pub fn out_bits(&self) -> usize {
        let all = (0..1u64 << self.inputs()).fold(0, |acc, m| acc | self.eval(m));
        (64 - all.leading_zeros() as usize).max(1)
    }

    /// A readable, unique name such as `mulk_5x3_k7`.
    pub fn name(&self) -> String {
        let w: Vec<String> = self.widths.iter().map(usize::to_string).collect();
        format!("{}_{}_k{}", self.family, w.join("x"), self.k)
    }

    /// The two-level specification network (inputs `x0..`, outputs `y0..`).
    pub fn network(&self) -> Network {
        let tables = word_function(self.inputs(), self.out_bits(), |m| self.eval(m));
        two_level(&self.name(), &tables)
    }
}

/// The fixed arithmetic catalogue: 8 families × 15 distinct (widths,
/// constant) pairs, 6 to 8 inputs each; multipliers stay within 4×4.
/// Each family is built as 30 members and every other one is kept, so
/// every width still appears and the constants alternate.
pub fn arith_catalog() -> Vec<Arith> {
    let pairs_add = [(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (2, 5)];
    let pairs = [(3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (4, 4)];
    let pairs_mul = [(3, 3), (3, 4), (4, 3), (4, 4), (2, 4), (4, 2)];
    let pairs_mulk = [(4, 2), (3, 3), (4, 3), (5, 2), (5, 3), (4, 4)];
    let mut out = Vec::new();
    let mut two = |family, pairs: &[(usize, usize)], ks: &[u64]| {
        for &(wa, wb) in pairs {
            for &k in ks {
                out.push(Arith {
                    family,
                    widths: vec![wa, wb],
                    k,
                });
            }
        }
    };
    let offsets = [0, 1, 2, 3, 4];
    two("add", &pairs_add, &offsets);
    two("sub", &pairs, &offsets);
    two("mul", &pairs_mul, &offsets);
    two("absdiff", &pairs, &offsets);
    two("mulk", &pairs_mulk, &[3, 5, 7, 11, 13]);
    two("cmp", &pairs, &offsets);
    for k in 0..30 {
        out.push(Arith {
            family: "square",
            widths: vec![6],
            k,
        });
    }
    for w in [6, 7] {
        for k in [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 19, 21, 23] {
            out.push(Arith {
                family: "mod",
                widths: vec![w],
                k,
            });
        }
    }
    out.into_iter().step_by(2).collect()
}

/// BLIF texts of the catalogue, in catalogue order.
pub fn arith_texts(catalog: &[Arith]) -> Vec<String> {
    catalog.iter().map(|f| write_blif(&f.network())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use xsynth::blif::parse_blif;

    fn small_catalog() -> Vec<Arith> {
        // every family, smallest members, so the test stays fast
        let mut seen = HashSet::new();
        arith_catalog()
            .into_iter()
            .filter(|f| seen.insert(f.family))
            .collect()
    }

    #[test]
    fn catalogue_is_120_distinct_functions_of_6_to_8_inputs() {
        let cat = arith_catalog();
        assert_eq!(cat.len(), 120);
        let names: HashSet<String> = cat.iter().map(Arith::name).collect();
        assert_eq!(names.len(), 120);
        for f in &cat {
            assert!(
                (6..=8).contains(&f.inputs()),
                "{} has {}",
                f.name(),
                f.inputs()
            );
        }
        let families: HashSet<&str> = cat.iter().map(|f| f.family).collect();
        assert_eq!(families.len(), 8);
    }

    #[test]
    fn arithmetic_families_compute_what_they_say() {
        let f = |family, widths: &[usize], k| Arith {
            family,
            widths: widths.to_vec(),
            k,
        };
        // a=5 (low 3 bits), b=6, cin=1 → 5+6+1+2
        assert_eq!(f("add", &[3, 3], 2).eval(5 | 6 << 3 | 1 << 6), 14);
        // 2 − 5 − 1 mod 16
        assert_eq!(f("sub", &[3, 3], 1).eval(2 | 5 << 3), 12);
        assert_eq!(f("mul", &[3, 3], 1).eval(7 | 3 << 3), 22);
        assert_eq!(f("square", &[6], 2).eval(10), 144);
        assert_eq!(f("absdiff", &[3, 3], 0).eval(2 | 7 << 3), 5);
        assert_eq!(f("mulk", &[4, 2], 3).eval(9 | 2 << 4), 29);
        assert_eq!(f("mod", &[6], 7).eval(50), 1);
        // a=3 < b+k=4+1: lt only; a=5 == 4+1: eq only
        assert_eq!(f("cmp", &[3, 3], 1).eval(3 | 4 << 3), 0b001);
        assert_eq!(f("cmp", &[3, 3], 1).eval(5 | 4 << 3), 0b010);
        assert_eq!(f("mod", &[6], 7).out_bits(), 3);
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        let texts = arith_texts(&small_catalog());
        let a = pass(&texts, &mut Rng::new(1));
        let b = pass(&texts, &mut Rng::new(1));
        let c = pass(&texts, &mut Rng::new(2));
        assert_eq!(a, b, "same seed must give a byte-identical job stream");
        assert_ne!(a, c, "a different seed must give a different job stream");
        let order: Vec<usize> = a.iter().map(|p| p.input).collect();
        assert_eq!(order, (0..texts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn renaming_hides_every_name_and_round_trips() {
        let texts = arith_texts(&small_catalog());
        for p in pass(&texts, &mut Rng::new(7)) {
            let original = &texts[p.input];
            for line in p.blif.lines() {
                let mut tokens = line.split_ascii_whitespace();
                if tokens.next().is_some_and(|kw| NAME_LINES.contains(&kw)) {
                    for t in tokens {
                        assert!(p.original.contains_key(t), "{t} kept its name");
                    }
                }
            }
            assert_eq!(&map_names(&p.blif, &p.original), original);
        }
    }

    #[test]
    fn every_generated_blif_parses_and_matches_its_function() {
        let cat = small_catalog();
        let texts = arith_texts(&cat);
        for p in pass(&texts, &mut Rng::new(3)) {
            let f = &cat[p.input];
            let net = parse_blif(&p.blif).expect("generated BLIF parses");
            let bit_of_input: Vec<usize> = net
                .inputs()
                .iter()
                .map(|&s| {
                    let name = p.original_name(net.node_name(s).expect("named input"));
                    name[1..].parse().expect("inputs are x<i>")
                })
                .collect();
            let bit_of_output: Vec<usize> = net
                .outputs()
                .iter()
                .map(|(name, _)| {
                    p.original_name(name)[1..]
                        .parse()
                        .expect("outputs are y<i>")
                })
                .collect();
            for m in 0..1u64 << f.inputs() {
                let v: Vec<bool> = bit_of_input.iter().map(|&i| (m >> i) & 1 == 1).collect();
                let want = f.eval(m);
                for (o, got) in net.eval(&v).into_iter().enumerate() {
                    assert_eq!(
                        got,
                        (want >> bit_of_output[o]) & 1 == 1,
                        "{} m={m}",
                        f.name()
                    );
                }
            }
        }
    }
}
