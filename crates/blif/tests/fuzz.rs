//! Robustness fuzzing for the BLIF and PLA parsers: arbitrary and
//! dictionary-seeded malformed input must produce `Ok` or a typed
//! [`ParseError`] — never a panic, a stack overflow, or an allocation
//! blow-up. The deterministic tests pin the explicit robustness limits
//! (`MAX_LINE_LEN`, `MAX_CUBES_PER_COVER`, `MAX_INSTANTIATE_DEPTH`,
//! `MAX_PLA_ARITY`) to parse errors.

use proptest::prelude::*;
use xsynth_blif::{parse_blif, parse_pla, MAX_INSTANTIATE_DEPTH, MAX_PLA_ARITY};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through every parser: any outcome but a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_blif(&text);
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
        let _ = parse_blif(&src);
        let _ = parse_pla(&src);
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
