//! Robustness fuzzing for the BLIF and PLA parsers: arbitrary and
//! dictionary-seeded malformed input must produce `Ok` or a typed
//! [`ParseError`] — never a panic, a stack overflow, or an allocation
//! blow-up. The deterministic tests pin the explicit robustness limits
//! (`MAX_LINE_LEN`, `MAX_CUBES_PER_COVER`, `MAX_INSTANTIATE_DEPTH`,
//! `MAX_PLA_ARITY`) to parse errors. The BLIF generators also check the
//! reader against the pre-rewrite reader kept in `src/oracle.rs`.

use proptest::prelude::*;
use xsynth_blif::{parse_blif, parse_pla, ParseError, MAX_INSTANTIATE_DEPTH, MAX_PLA_ARITY};

#[path = "../src/oracle.rs"]
mod oracle;

/// The reader agrees with the oracle on `src`: the same network node for
/// node, or the same error. Two exceptions are the reader's own: a signal
/// defined twice (which the oracle accepted, last definition winning, or
/// ignored when it drove an input) is an error of its own, found after
/// every line error and before any undefined, cyclic or too deep
/// signal; and an undefined signal is reported at the line that
/// references it instead of line 0.
fn agrees_with_oracle(src: &str) {
    let redefined = |e: &ParseError| {
        e.message().contains("defined twice") || e.message().contains("drives primary input")
    };
    let resolving = |e: &ParseError| {
        [
            "undefined signal",
            "cyclic definition",
            "definition nesting",
        ]
        .iter()
        .any(|m| e.message().starts_with(m))
    };
    match (oracle::parse_blif(src), parse_blif(src)) {
        (Ok(old), Ok(new)) => assert_eq!(format!("{old:?}"), format!("{new:?}"), "{src:?}"),
        (Ok(_), Err(new)) => assert!(redefined(&new), "{src:?}: {new}"),
        (Err(old), Err(new)) if redefined(&new) => assert!(resolving(&old), "{src:?}: {old}"),
        (Err(old), Err(new)) => {
            assert_eq!(old.message(), new.message(), "{src:?}");
            if !old.message().starts_with("undefined signal") {
                assert_eq!(old.line(), new.line(), "{src:?}");
            }
        }
        (Err(old), Ok(_)) => panic!("{src:?}: only the oracle fails: {old}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through every parser: any outcome but a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        agrees_with_oracle(&text);
        let _ = parse_pla(&text);
    }

    /// Dictionary-seeded input reaches deeper parser states than raw
    /// bytes: random sequences of directives, cover rows, and junk.
    #[test]
    fn keyword_soup_never_panics(picks in prop::collection::vec((0usize..16, any::<u8>()), 0..64)) {
        const DICT: [&str; 16] = [
            ".model m", ".inputs a b", ".outputs y", ".names a b y",
            "11 1", "0- 1", ".end", ".i 2", ".o 1", ".ilb a b", ".ob y",
            ".p 1", "1- 1", ".e", ".latch a y", "\\",
        ];
        let mut src = String::new();
        for (pick, junk) in picks {
            src.push_str(DICT[pick]);
            if junk % 3 == 0 {
                src.push(junk as char);
            }
            src.push('\n');
        }
        agrees_with_oracle(&src);
        let _ = parse_pla(&src);
    }

    /// Mostly well-formed models over a few shared names: definitions in
    /// any order with on- or off-set covers of the right width, constants,
    /// continuations and comments, plus now and then a redefinition, a
    /// `.names` driving an input, a cycle or an undefined signal.
    #[test]
    fn model_soup_agrees_with_the_oracle(
        defs in prop::collection::vec((0usize..16, any::<u64>()), 3..16),
    ) {
        // (pins and output, pin count); the first three define every
        // output once, the rest are emitted at most once each as well
        const DEFS: [(&str, usize); 8] = [
            ("a b t", 2), ("t c y", 2), ("b t z", 2), ("k", 0),
            ("c a", 1), ("y t", 1), ("a u z", 2), ("k \\\n c y", 2),
        ];
        let mut src = String::from(".model m # soup\n.inputs a b \\\n c\n.outputs y z\n");
        let mut seen = [false; DEFS.len()];
        for (pick, bits) in defs {
            let pick = if pick < 12 { pick % 3 } else { pick - 9 };
            if std::mem::replace(&mut seen[pick], true) {
                continue;
            }
            let (header, width) = DEFS[pick];
            src.push_str(".names ");
            src.push_str(header);
            src.push('\n');
            let value = if bits & 1 == 0 { " 1" } else { " 0" };
            for row in 0..(bits >> 1 & 3) as usize {
                for pin in 0..width {
                    src.push(['0', '1', '-'][(bits >> (3 + 2 * (row * 2 + pin)) & 3) as usize % 3]);
                }
                src.push_str(if width == 0 { value.trim() } else { value });
                src.push('\n');
            }
        }
        src.push_str(".end\n");
        agrees_with_oracle(&src);
    }
}

#[test]
fn oversized_pla_arity_is_a_parse_error_not_oom() {
    // a hostile header must fail before the default-name allocation
    let big = MAX_PLA_ARITY + 1;
    let err = parse_pla(&format!(".i {big}\n.o 1\n.e\n")).unwrap_err();
    assert!(err.message().contains("maximum"), "{err}");
    let err = parse_pla(&format!(".i 1\n.o {big}\n.e\n")).unwrap_err();
    assert!(err.message().contains("maximum"), "{err}");
    // usize::MAX parses as a number but is rejected the same way
    let err = parse_pla(&format!(".i {}\n.o 1\n.e\n", usize::MAX)).unwrap_err();
    assert!(err.message().contains("maximum"), "{err}");
}

#[test]
fn deep_names_chain_is_a_parse_error_not_stack_overflow() {
    let depth = MAX_INSTANTIATE_DEPTH + 8;
    let mut src = String::from(".model deep\n.inputs a\n.outputs y\n");
    src.push_str(".names a s0\n1 1\n");
    for i in 1..depth {
        src.push_str(&format!(".names s{} s{i}\n1 1\n", i - 1));
    }
    src.push_str(&format!(".names s{} y\n1 1\n.end\n", depth - 1));
    let err = parse_blif(&src).unwrap_err();
    assert!(err.message().contains("nesting"), "{err}");
}

#[test]
fn endless_continuations_are_a_parse_error_not_oom() {
    // each physical line is small, but the joined logical line would be
    // unbounded; the parser cuts it off at MAX_LINE_LEN
    let mut src = String::from(".model c\n");
    for _ in 0..40_000 {
        src.push_str(".inputs aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa \\\n");
    }
    let err = parse_blif(&src).unwrap_err();
    assert!(err.message().contains("exceeds"), "{err}");
}

#[test]
fn shallow_chain_still_parses() {
    // the depth limit must not reject legitimate deep-but-bounded logic
    let depth = MAX_INSTANTIATE_DEPTH - 8;
    let mut src = String::from(".model ok\n.inputs a\n.outputs y\n");
    src.push_str(".names a s0\n1 1\n");
    for i in 1..depth {
        src.push_str(&format!(".names s{} s{i}\n0 1\n", i - 1));
    }
    src.push_str(&format!(".names s{} y\n1 1\n.end\n", depth - 1));
    let net = parse_blif(&src).unwrap();
    // a chain of (depth - 1) inverters on top of one buffer
    let want = (depth - 1).is_multiple_of(2) as u64;
    assert_eq!(net.eval_u64(1), vec![want != 0]);
}
