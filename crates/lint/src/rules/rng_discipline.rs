//! L6 — `DetRng` stream discipline.
//!
//! Replay determinism (DESIGN.md §5) requires every random stream to be a
//! named derivation of the experiment seed: two consumers sharing draws, an
//! ad-hoc seed expression, or a raw `SmallRng` all silently change which
//! numbers land where when unrelated code moves. The rule enforces:
//!
//! - `DetRng::seed_from(..)` only as the head of a stream-derivation
//!   expression (a `.derive(STREAM)` in the same statement); standalone
//!   construction goes through a named constructor (`xor_stream`, `derive`)
//!   instead;
//! - no `SmallRng` outside `mellow-engine`'s own `rng.rs`;
//! - no `.clone()` of an rng value — a clone forks one stream into two
//!   consumers that then drift together;
//! - `.skip(n)` on an rng only inside span-replay code (functions whose
//!   name mentions `span`, `fast_forward` or `replay`).

use super::common::fn_items;
use super::Finding;
use crate::lexer::{Tok, TokKind};

/// Function-name fragments that mark sanctioned span-replay code, where
/// `skip(n)` reproduces a closed-form fast-forward of the stream.
const REPLAY_FRAGMENTS: &[&str] = &["span", "fast_forward", "replay"];

/// Is `toks[i]` (the token before a `.clone(`/`.skip(` dot) an
/// rng-flavored receiver? Identifier names only — `)`/`]` receivers are
/// opaque and left alone.
fn rng_flavored(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text.to_lowercase().contains("rng")
}

/// Scans forward from a `seed_from(` call through the rest of its
/// statement looking for a `.derive(..)` link. Bounded by statement
/// terminators at paren depth zero.
fn derived_in_statement(toks: &[Tok], from: usize) -> bool {
    let n = toks.len();
    let mut depth = 0i32;
    let mut j = from;
    while j < n && j < from + 60 {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" | "{" | "}" if depth <= 0 => return false,
            "derive" if t.kind == TokKind::Ident => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// L6 over one file's non-test tokens: raw `SmallRng`, underived
/// `DetRng::seed_from`, rng clones and skips outside span replay.
pub(super) fn check(toks: &[Tok], excluded: &[bool]) -> Vec<Finding> {
    let n = toks.len();
    let items = fn_items(toks);
    let enclosing_is_replay = |i: usize| {
        items.iter().any(|f| {
            let (open, close) = f.body;
            open < close
                && i > open
                && i < close
                && REPLAY_FRAGMENTS.iter().any(|frag| f.name.contains(frag))
        })
    };
    let mut out = Vec::new();

    for i in 0..n {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];

        // Raw `SmallRng` bypasses the DetRng wrapper entirely.
        if t.kind == TokKind::Ident && t.text == "SmallRng" {
            out.push((
                t.line,
                "raw `SmallRng` outside `mellow-engine::rng`; all streams go through `DetRng`"
                    .to_string(),
            ));
            continue;
        }

        // `DetRng::seed_from(..)` must be the head of a `.derive(..)` chain.
        if t.text == "DetRng"
            && i + 3 < n
            && toks[i + 1].text == "::"
            && toks[i + 2].text == "seed_from"
            && toks[i + 3].text == "("
            && !derived_in_statement(toks, i + 3)
        {
            out.push((
                toks[i + 2].line,
                "ad-hoc `DetRng::seed_from(..)` without a named stream derivation; \
                 use `DetRng::xor_stream(seed, STREAM)` or chain `.derive(STREAM)`"
                    .to_string(),
            ));
        }

        if t.text != "." || i + 2 >= n || i == 0 {
            continue;
        }
        let method = &toks[i + 1];
        if method.kind != TokKind::Ident || toks[i + 2].text != "(" || !rng_flavored(&toks[i - 1]) {
            continue;
        }

        // `.clone()` forks a stream into two consumers.
        if method.text == "clone" {
            out.push((
                method.line,
                format!(
                    "`{}.clone()` forks one random stream into two consumers; \
                     derive a named child stream instead",
                    toks[i - 1].text
                ),
            ));
        }

        // `.skip(n)` is the span-replay fast-forward — nowhere else.
        if method.text == "skip" && !enclosing_is_replay(i) {
            out.push((
                method.line,
                format!(
                    "`{}.skip(..)` outside span-replay code; skipping draws elsewhere \
                     desynchronizes the stream from its recorded history",
                    toks[i - 1].text
                ),
            ));
        }
    }
    out
}
