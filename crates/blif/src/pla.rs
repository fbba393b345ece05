//! Espresso PLA format reading and writing.

use crate::ParseError;
use xsynth_boolean::Sop;
use xsynth_net::{GateKind, Network, SignalId};

/// A parsed two-level PLA description: one SOP cover per output over a
/// shared input set.
///
/// # Examples
///
/// ```
/// use xsynth_blif::parse_pla;
///
/// let src = "\
/// .i 2
/// .o 1
/// 11 1
/// .e
/// ";
/// let pla = parse_pla(src)?;
/// assert_eq!(pla.num_inputs(), 2);
/// let net = pla.to_network("and2");
/// assert_eq!(net.eval_u64(0b11), vec![true]);
/// # Ok::<(), xsynth_blif::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pla {
    num_inputs: usize,
    input_names: Vec<String>,
    output_names: Vec<String>,
    covers: Vec<Sop>,
}

impl Pla {
    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.covers.len()
    }

    /// Input names (synthesized as `x0..` when the file omits `.ilb`).
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output names (synthesized as `y0..` when the file omits `.ob`).
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The on-set cover of each output.
    pub fn covers(&self) -> &[Sop] {
        &self.covers
    }

    /// Builds a two-level [`Network`] (one AND per cube, one OR per output).
    pub fn to_network(&self, name: &str) -> Network {
        let mut net = Network::new(name);
        let inputs: Vec<SignalId> = self
            .input_names
            .iter()
            .map(|n| net.add_input(n.clone()))
            .collect();
        for (o, cover) in self.covers.iter().enumerate() {
            let mut cube_sigs = Vec::new();
            for cube in cover.cubes() {
                let mut lits = Vec::new();
                for (v, phase) in cube.literals() {
                    lits.push(if phase {
                        inputs[v]
                    } else {
                        net.add_gate(GateKind::Not, vec![inputs[v]])
                    });
                }
                let c = match lits.len() {
                    0 => net.add_gate(GateKind::Const1, vec![]),
                    1 => lits[0],
                    _ => net.add_gate(GateKind::And, lits),
                };
                cube_sigs.push(c);
            }
            let s = match cube_sigs.len() {
                0 => net.add_gate(GateKind::Const0, vec![]),
                1 => cube_sigs[0],
                _ => net.add_gate(GateKind::Or, cube_sigs),
            };
            net.add_output(self.output_names[o].clone(), s);
        }
        net
    }
}

/// Largest `.i`/`.o` arity the parser accepts. The declared counts drive
/// up-front allocations (default names, one cover per output), so a
/// hostile header like `.i 9999999999` must fail as a parse error before
/// any allocation, not as an out-of-memory abort.
pub const MAX_PLA_ARITY: usize = 1 << 16;

/// Parses espresso PLA text (`.i`, `.o`, `.ilb`, `.ob`, `.p`, `.type fr|f`,
/// product-term rows, `.e`).
///
/// Output-plane characters `1` add the cube to that output's on-set; `0`,
/// `-` and `~` leave it out (the f/fr distinction does not matter for
/// on-set construction).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed rows, missing `.i`/`.o`, or
/// declared arities above [`MAX_PLA_ARITY`].
pub fn parse_pla(src: &str) -> Result<Pla, ParseError> {
    let mut num_inputs: Option<usize> = None;
    let mut num_outputs: Option<usize> = None;
    let mut input_names: Option<Vec<String>> = None;
    let mut output_names: Option<Vec<String>> = None;
    let mut rows: Vec<(usize, String, String)> = Vec::new();

    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.find('#') {
            Some(p) => raw[..p].trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut tok = rest.split_whitespace();
            match tok.next().unwrap_or("") {
                "i" => {
                    let n: usize = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| ParseError::new(lineno, "bad .i"))?;
                    if n > MAX_PLA_ARITY {
                        return Err(ParseError::new(
                            lineno,
                            format!(".i {n} exceeds the supported maximum {MAX_PLA_ARITY}"),
                        ));
                    }
                    num_inputs = Some(n);
                }
                "o" => {
                    let n: usize = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| ParseError::new(lineno, "bad .o"))?;
                    if n > MAX_PLA_ARITY {
                        return Err(ParseError::new(
                            lineno,
                            format!(".o {n} exceeds the supported maximum {MAX_PLA_ARITY}"),
                        ));
                    }
                    num_outputs = Some(n);
                }
                "ilb" => input_names = Some(tok.map(str::to_string).collect()),
                "ob" => output_names = Some(tok.map(str::to_string).collect()),
                "p" | "e" | "end" | "type" | "phase" | "pair" | "symbolic" => {}
                other => {
                    return Err(ParseError::new(
                        lineno,
                        format!("unknown directive .{other}"),
                    ))
                }
            }
        } else {
            let mut parts = line.split_whitespace();
            let inp = parts
                .next()
                .ok_or_else(|| ParseError::new(lineno, "missing input plane"))?;
            let outp = parts
                .next()
                .ok_or_else(|| ParseError::new(lineno, "missing output plane"))?;
            rows.push((lineno, inp.to_string(), outp.to_string()));
        }
    }

    let ni = num_inputs.ok_or_else(|| ParseError::new(0, "missing .i"))?;
    let no = num_outputs.ok_or_else(|| ParseError::new(0, "missing .o"))?;
    let input_names = input_names.unwrap_or_else(|| (0..ni).map(|i| format!("x{i}")).collect());
    let output_names = output_names.unwrap_or_else(|| (0..no).map(|o| format!("y{o}")).collect());
    if input_names.len() != ni {
        return Err(ParseError::new(0, ".ilb arity mismatch"));
    }
    if output_names.len() != no {
        return Err(ParseError::new(0, ".ob arity mismatch"));
    }

    let mut covers = vec![Sop::new(ni); no];
    let mut cube = Sop::new(ni);
    for (lineno, inp, outp) in rows {
        if inp.len() != ni {
            return Err(ParseError::new(lineno, "input plane width mismatch"));
        }
        if outp.len() != no {
            return Err(ParseError::new(lineno, "output plane width mismatch"));
        }
        if let Some(other) = inp.chars().find(|c| !"10-~2".contains(*c)) {
            return Err(ParseError::new(lineno, format!("bad input char '{other}'")));
        }
        let vars = |phase: char| {
            (inp.chars().enumerate()).filter_map(move |(v, c)| (c == phase).then_some(v))
        };
        cube.clear();
        cube.push_literals(vars('1'), vars('0'));
        for (o, c) in outp.chars().enumerate() {
            match c {
                '1' | '4' => covers[o].push(cube.cube(0)),
                '0' | '-' | '~' | '2' | '3' => {}
                other => {
                    return Err(ParseError::new(
                        lineno,
                        format!("bad output char '{other}'"),
                    ))
                }
            }
        }
    }

    Ok(Pla {
        num_inputs: ni,
        input_names,
        output_names,
        covers,
    })
}

/// Serializes covers as espresso PLA text.
pub fn write_pla(pla: &Pla) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        ".i {}\n.o {}\n",
        pla.num_inputs,
        pla.num_outputs()
    ));
    s.push_str(&format!(".ilb {}\n", pla.input_names.join(" ")));
    s.push_str(&format!(".ob {}\n", pla.output_names.join(" ")));
    // gather distinct cubes across outputs, then emit one row per (cube,
    // output-mask) — simplest faithful form: one row per cube per output
    let total: usize = pla.covers.iter().map(Sop::num_cubes).sum();
    s.push_str(&format!(".p {total}\n"));
    for (o, cover) in pla.covers.iter().enumerate() {
        for cube in cover.cubes() {
            let mut row = String::with_capacity(pla.num_inputs + pla.num_outputs() + 2);
            for v in 0..pla.num_inputs {
                row.push(match cube.phase(v) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => '-',
                });
            }
            row.push(' ');
            for oo in 0..pla.num_outputs() {
                row.push(if oo == o { '1' } else { '-' });
            }
            s.push_str(&row);
            s.push('\n');
        }
    }
    s.push_str(".e\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_multi_output() {
        let src = "\
.i 3
.o 2
.ilb a b c
.ob s t
11- 10
--1 01
1-1 11
.e
";
        let pla = parse_pla(src).unwrap();
        assert_eq!(pla.num_inputs(), 3);
        assert_eq!(pla.num_outputs(), 2);
        let net = pla.to_network("m");
        for m in 0..8u64 {
            let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            let v = net.eval_u64(m);
            assert_eq!(v[0], a && (b || c), "s at {m}");
            assert_eq!(v[1], c, "t at {m} (c | a·c = c)");
        }
    }

    #[test]
    fn roundtrip() {
        let src = ".i 2\n.o 1\n10 1\n01 1\n.e\n";
        let pla = parse_pla(src).unwrap();
        let text = write_pla(&pla);
        let back = parse_pla(&text).unwrap();
        let (n1, n2) = (pla.to_network("a"), back.to_network("b"));
        for m in 0..4u64 {
            assert_eq!(n1.eval_u64(m), n2.eval_u64(m));
        }
    }

    #[test]
    fn default_names() {
        let pla = parse_pla(".i 2\n.o 1\n11 1\n.e\n").unwrap();
        assert_eq!(pla.input_names(), ["x0", "x1"]);
        assert_eq!(pla.output_names(), ["y0"]);
    }

    #[test]
    fn error_on_bad_width() {
        let err = parse_pla(".i 3\n.o 1\n11 1\n.e\n").unwrap_err();
        assert!(err.message().contains("width"));
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let pla = parse_pla(".i 1\n.o 1\n.e\n").unwrap();
        let net = pla.to_network("z");
        assert_eq!(net.eval_u64(0), vec![false]);
        assert_eq!(net.eval_u64(1), vec![false]);
    }
}
