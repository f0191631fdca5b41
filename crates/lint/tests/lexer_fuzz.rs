//! Property tests fuzzing the hand-rolled lexer (and, through
//! `lint_source`, every rule built on it): arbitrary input must never
//! panic, reported line numbers must be stable and in range, and
//! lexing must be a pure function of the source text.

use mellow_lint::lexer::{lex, TokKind};
use mellow_lint::lint_source;
use proptest::prelude::*;

/// Flattens a token stream to a comparable form (`Tok` itself carries
/// no `PartialEq`).
fn fingerprint(src: &str) -> Vec<(TokKind, String, u32)> {
    lex(src)
        .toks
        .iter()
        .map(|t| (t.kind, t.text.clone(), t.line))
        .collect()
}

/// Checks every lexer invariant on one input; returns an error message
/// for `prop_assert`-style reporting.
fn check_invariants(src: &str) -> Result<(), String> {
    let lexed = lex(src);
    let line_count = src.lines().count().max(1) as u32;
    let mut prev = 1u32;
    for t in &lexed.toks {
        if t.line < prev {
            return Err(format!(
                "token lines must be non-decreasing: {} after {prev} in {src:?}",
                t.line
            ));
        }
        if t.line > line_count {
            return Err(format!(
                "token line {} exceeds the {line_count}-line source {src:?}",
                t.line
            ));
        }
        prev = t.line;
    }
    for a in &lexed.allows {
        if a.line > line_count {
            return Err(format!(
                "waiver line {} exceeds the {line_count}-line source {src:?}",
                a.line
            ));
        }
    }
    // Lexing is deterministic: a second pass is token-for-token equal.
    if fingerprint(src) != fingerprint(src) {
        return Err(format!("double lex disagrees on {src:?}"));
    }
    // The rules built on the stream must not panic either, on any
    // scope (a sim-crate path exercises all five).
    let _ = lint_source("crates/memctrl/src/fuzz.rs", src);
    let _ = lint_source("crates/engine/src/fuzz.rs", src);
    Ok(())
}

/// Fragments that stress tokenizer edges: merged punctuation, comment
/// and string delimiters (including unterminated ones at EOF),
/// lifetimes vs char literals, waiver comments, and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "fn",
    "self",
    "HashMap",
    "DetRng",
    "CtrlStats",
    "'a",
    "'x'",
    "'\\''",
    "0xfeed",
    "1_000",
    "42",
    "::",
    "->",
    "=>",
    "==",
    "<=",
    "+=",
    "<<=",
    "=",
    ".",
    ",",
    ";",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "#",
    "\"str\"",
    "\"unterminated",
    "\"esc\\\"aped\"",
    "// line comment",
    "/* block */",
    "/* unterminated",
    "// mellow-lint: allow(determinism) -- fuzz",
    "\n",
    " ",
    "\t",
    "héllo",
    "日本語",
    "\\",
    "b\"bytes\"",
    "r#\"raw\"#",
    "'",
    "\"",
];

proptest! {
    #[test]
    fn lexer_survives_fragment_soup(picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..120)) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
        check_invariants(&src)?;
    }

    #[test]
    fn lexer_survives_ascii_noise(bytes in proptest::collection::vec(0u8..128, 0..200)) {
        let src: String = bytes.iter().map(|&b| b as char).collect();
        check_invariants(&src)?;
    }
}

#[test]
fn fragment_soup_covers_every_token_kind() {
    // Sanity for the generator itself: the pool really produces all
    // five token kinds, so the properties above exercise each path.
    let src = FRAGMENTS.join(" ");
    let kinds: Vec<TokKind> = lex(&src).toks.iter().map(|t| t.kind).collect();
    for kind in [
        TokKind::Ident,
        TokKind::Lifetime,
        TokKind::Num,
        TokKind::Str,
        TokKind::Char,
        TokKind::Punct,
    ] {
        assert!(kinds.contains(&kind), "pool never lexes {kind:?}");
    }
}
