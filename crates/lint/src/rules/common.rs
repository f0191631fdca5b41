//! Helpers shared by several rules: bracket matching, the test-span
//! mask, and a lightweight `fn`-item index over the token stream.

use crate::lexer::{Tok, TokKind};

/// The index of the token closing the bracket (`(`, `[` or `{`) opened
/// at `toks[open]`, counting only that bracket kind; `toks.len()` when
/// the stream ends first.
pub(super) fn close_of(toks: &[Tok], open: usize) -> usize {
    let close = match toks[open].text.as_str() {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.text == toks[open].text {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len()
}

/// Marks the token spans belonging to test code: any item annotated
/// `#[test]`/`#[bench]` or gated on `#[cfg(test)]` (but *not*
/// `#[cfg(not(test))]`), through the end of its body.
pub(super) fn test_spans(toks: &[Tok]) -> Vec<bool> {
    let n = toks.len();
    let mut excluded = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].text != "#" || i + 1 >= n || toks[i + 1].text != "[" {
            i += 1;
            continue;
        }
        let j = close_of(toks, i + 1);
        let attr = &toks[i + 2..j.min(n)];
        let has = |s: &str| attr.iter().any(|t| t.text == s);
        if !(has("test") || has("bench")) || has("not") {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then mark through the end of the
        // annotated item (to the matching `}` of its body, or to `;` for
        // a body-less item).
        let mut end = j + 1;
        while end + 1 < n && toks[end].text == "#" && toks[end + 1].text == "[" {
            end = close_of(toks, end + 1) + 1;
        }
        while end < n && toks[end].text != "{" && toks[end].text != ";" {
            end += 1;
        }
        if end < n && toks[end].text == "{" {
            end = close_of(toks, end);
        }
        let end = (end + 1).min(n);
        excluded[i..end].fill(true);
        i = end;
    }
    excluded
}

/// One `fn` item: name and body token span. Nested functions each get
/// their own entry.
pub(super) struct FnItem {
    pub(super) name: String,
    /// Inclusive token range `[open brace, close brace]` of the body;
    /// `start == end` for body-less items (trait signatures).
    pub(super) body: (usize, usize),
}

/// Indexes every `fn` item in the token stream with its body span — the
/// backbone of the method-granular rule (L6).
pub(super) fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
    let n = toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        if toks[i].kind != TokKind::Ident || toks[i].text != "fn" || i + 1 >= n {
            continue;
        }
        let name_tok = &toks[i + 1];
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(u64) -> u64` pointer type, not an item
        }
        // Find the parameter list, skipping generics.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < n {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" if angle <= 0 => break,
                "{" | ";" => break,
                _ => {}
            }
            j += 1;
        }
        if j >= n || toks[j].text != "(" {
            continue;
        }
        // Close the parameter list, then scan (past the return type and
        // any where clause) to the body `{` or a `;`.
        let mut e = close_of(toks, j);
        while e < n && toks[e].text != "{" && toks[e].text != ";" {
            e += 1;
        }
        let body = if e < n && toks[e].text == "{" {
            (e, close_of(toks, e).min(n - 1))
        } else {
            (i, i)
        };
        out.push(FnItem {
            name: name_tok.text.clone(),
            body,
        });
    }
    out
}
