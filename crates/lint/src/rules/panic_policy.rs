//! L3 — panic policy: no `.unwrap()` / `.expect("")` in library code.

use super::Finding;
use crate::lexer::{Tok, TokKind};

/// L3 over one file's non-test tokens: `.unwrap()` and `.expect("")`.
pub(super) fn check(toks: &[Tok], excluded: &[bool]) -> Vec<Finding> {
    let n = toks.len();
    let mut out = Vec::new();

    for i in 0..n {
        if excluded[i] || toks[i].text != "." {
            continue;
        }
        if i + 3 < n
            && toks[i + 1].text == "unwrap"
            && toks[i + 2].text == "("
            && toks[i + 3].text == ")"
        {
            out.push((
                toks[i + 1].line,
                "`.unwrap()` in library code; use a typed error or `.expect(\"<invariant>\")`"
                    .to_string(),
            ));
        }
        if i + 3 < n
            && toks[i + 1].text == "expect"
            && toks[i + 2].text == "("
            && toks[i + 3].kind == TokKind::Str
        {
            let lit = &toks[i + 3].text;
            let open = lit.find('"');
            let close = lit.rfind('"');
            let empty = match (open, close) {
                (Some(a), Some(b)) => a + 1 >= b,
                _ => true,
            };
            if empty {
                out.push((
                    toks[i + 1].line,
                    "`.expect(\"\")` with an empty message; state the violated invariant"
                        .to_string(),
                ));
            }
        }
    }
    out
}
