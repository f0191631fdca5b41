//! Helpers shared by several rules: the test-span mask, identifier
//! collection, and a lightweight `fn`-item index over the token stream.

use crate::lexer::{Lexed, Tok, TokKind};

/// Marks the token spans belonging to test code: any item annotated
/// `#[test]`/`#[bench]` or gated on `#[cfg(test)]` (but *not*
/// `#[cfg(not(test))]`), through the end of its body.
pub fn test_spans(toks: &[Tok]) -> Vec<bool> {
    let n = toks.len();
    let mut excluded = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].text == "#" && i + 1 < n && toks[i + 1].text == "[" {
            // Find the matching `]` of the attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < n {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let attr = &toks[i + 2..j.min(n)];
            let has = |s: &str| attr.iter().any(|t| t.text == s);
            let is_test_attr = (has("test") || has("bench")) && !has("not");
            if is_test_attr {
                // Skip any further attributes, then mark through the end of
                // the annotated item (to the matching `}` of its body, or to
                // `;` for a body-less item).
                let mut k = j + 1;
                while k + 1 < n && toks[k].text == "#" && toks[k + 1].text == "[" {
                    let mut d = 0usize;
                    while k < n {
                        match toks[k].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Find the item body.
                let mut end = k;
                while end < n && toks[end].text != "{" && toks[end].text != ";" {
                    end += 1;
                }
                if end < n && toks[end].text == "{" {
                    let mut braces = 0usize;
                    while end < n {
                        match toks[end].text.as_str() {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                }
                let end = (end + 1).min(n);
                for flag in excluded.iter_mut().take(end).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    excluded
}

/// Collects every non-test identifier occurrence in a file (for the L4
/// cross-file reference check).
pub fn collect_idents(lx: &Lexed, excluded: &[bool]) -> Vec<(String, u32)> {
    lx.toks
        .iter()
        .zip(excluded.iter())
        .filter(|(t, ex)| t.kind == TokKind::Ident && !**ex)
        .map(|(t, _)| (t.text.clone(), t.line))
        .collect()
}

/// One `fn` item: name and body token span. Nested functions each get
/// their own entry.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inclusive token range `[open brace, close brace]` of the body;
    /// `start == end` for body-less items (trait signatures).
    pub body: (usize, usize),
}

/// Indexes every `fn` item in the token stream with its body span — the
/// backbone of the method-granular rule (L6).
pub fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
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
        let mut depth = 0i32;
        let mut b = j;
        while b < n {
            match toks[b].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            b += 1;
        }
        let mut e = b;
        while e < n && toks[e].text != "{" && toks[e].text != ";" {
            e += 1;
        }
        let mut body = (i, i);
        if e < n && toks[e].text == "{" {
            let open = e;
            let mut braces = 0i32;
            while e < n {
                match toks[e].text.as_str() {
                    "{" => braces += 1,
                    "}" => {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                e += 1;
            }
            body = (open, e.min(n - 1));
        }
        out.push(FnItem {
            name: name_tok.text.clone(),
            body,
        });
    }
    out
}
