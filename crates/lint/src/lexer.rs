//! A minimal hand-rolled Rust lexer.
//!
//! The lint rules do not need a full parse tree — they pattern-match over a
//! token stream with line numbers attached. This lexer therefore only has to
//! get *tokenization* right: comments (including nested block comments),
//! string/char/lifetime disambiguation and raw strings must not leak their
//! contents into the identifier stream, otherwise a forbidden name inside a
//! doc comment or format string would produce phantom diagnostics.
//!
//! The lexer also extracts `mellow-lint: allow(<rule>)` markers from line
//! comments, so the per-file routine can drop the findings they waive.

/// Token classification. Coarser than rustc's: every operator or delimiter is
/// a [`TokKind::Punct`], with multi-character sequences that matter to the
/// rules (`::`, `->`, `=>`) pre-merged into single tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `as`, `HashMap`, `foo_cycles`, ...).
    Ident,
    /// Lifetime such as `'a` or `'_` (the leading quote is kept in `text`).
    Lifetime,
    /// Integer or float literal, including suffix (`42u64`, `1.5`, `0xff`).
    Num,
    /// String literal (normal, raw or byte); `text` keeps the quotes.
    Str,
    /// Char or byte-char literal; `text` keeps the quotes.
    Char,
    /// Operator / delimiter. `::`, `->` and `=>` are single tokens.
    Punct,
}

/// One lexed token with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// An inline waiver comment: `// mellow-lint: allow(rule-a, rule-b) -- why`.
///
/// A waiver applies to the line it is written on and to the following line,
/// so it can sit either at the end of the offending statement or directly
/// above it.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: u32,
    pub rules: Vec<String>,
}

/// The output of [`lex`]: the token stream plus any inline waivers.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<Allow>,
}

/// Returns true if `line` is covered by a waiver for `rule`.
pub(crate) fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses the rule list out of a `mellow-lint: allow(...)` comment, if the
/// comment is one.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("mellow-lint:")?;
    let rest = comment[idx + "mellow-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Lexes `src` into tokens. Unterminated constructs (string, comment) simply
/// consume the rest of the input; the lint is diagnostic tooling, not a
/// compiler, so it degrades gracefully on malformed input.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut toks: Vec<Tok> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();

    // Pushes the slice b[start..end] as a token, counting newlines inside it.
    macro_rules! push_span {
        ($kind:expr, $start:expr, $end:expr) => {{
            let text: String = b[$start..$end].iter().collect();
            let newlines = text.chars().filter(|&c| c == '\n').count() as u32;
            toks.push(Tok {
                kind: $kind,
                text,
                line,
            });
            line += newlines;
        }};
    }

    while i < n {
        let c = b[i];

        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Line comment (also covers doc comments `///` and `//!`).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if let Some(rules) = parse_allow(&text) {
                allows.push(Allow { line, rules });
            }
            continue;
        }

        // Block comment, with nesting as in Rust.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }

        // Raw / byte string prefixes: r", r#", b", br", br#", c".
        if (c == 'r' || c == 'b' || c == 'c') && i + 1 < n {
            let mut j = i + 1;
            if c == 'b' && j < n && b[j] == 'r' {
                j += 1;
            }
            let raw = c == 'r' || (c == 'b' && j > i + 1);
            let mut hashes = 0usize;
            let mut k = j;
            if raw {
                while k < n && b[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
            }
            if k < n && b[k] == '"' && (raw || hashes == 0) {
                // Scan the string body to the matching close quote.
                let start = i;
                i = k + 1;
                loop {
                    if i >= n {
                        break;
                    }
                    if !raw && b[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if b[i] == '"' {
                        let mut h = 0usize;
                        while h < hashes && i + 1 + h < n && b[i + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            i += 1 + hashes;
                            break;
                        }
                    }
                    i += 1;
                }
                push_span!(TokKind::Str, start, i);
                continue;
            }
            if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
                // Byte char literal b'x'.
                let start = i;
                i += 2;
                if i < n && b[i] == '\\' {
                    i += 1;
                }
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i = (i + 1).min(n);
                push_span!(TokKind::Char, start, i);
                continue;
            }
            // Fall through: plain identifier starting with r/b/c.
        }

        // Normal string literal.
        if c == '"' {
            let start = i;
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            push_span!(TokKind::Str, start, i.min(n));
            continue;
        }

        // Quote: lifetime or char literal.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: '\n', '\u{1F600}', '\''.
                let start = i;
                i += 2; // skip quote and backslash
                if i < n {
                    i += 1; // the escaped char (or 'u' of \u{...})
                }
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                i = (i + 1).min(n);
                push_span!(TokKind::Char, start, i);
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                // Either a lifetime 'a or a char literal 'x'. Disambiguate by
                // looking past the identifier run for a closing quote.
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    push_span!(TokKind::Char, i, j + 1);
                    i = j + 1;
                } else {
                    push_span!(TokKind::Lifetime, i, j);
                    i = j;
                }
                continue;
            }
            // Something like '(' )' — a single-char literal of punctuation.
            let start = i;
            i += 1;
            while i < n && b[i] != '\'' && b[i] != '\n' {
                i += 1;
            }
            if i < n && b[i] == '\'' {
                i += 1;
            }
            push_span!(TokKind::Char, start, i);
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            push_span!(TokKind::Ident, start, i);
            continue;
        }

        // Number literal.
        if c.is_ascii_digit() {
            let start = i;
            while i < n {
                let float_dot = b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit();
                if !is_ident_continue(b[i]) && !float_dot {
                    break;
                }
                i += 1;
            }
            push_span!(TokKind::Num, start, i);
            continue;
        }

        // Multi-char puncts the rules care about.
        if i + 1 < n {
            let two: String = b[i..i + 2].iter().collect();
            if two == "::" || two == "->" || two == "=>" {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: two,
                    line,
                });
                i += 2;
                continue;
            }
        }

        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }

    Lexed { toks, allows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_identifiers() {
        let src = r##"
            // unwrap inside a comment
            /* HashMap in /* a nested */ block */
            let s = "calls .unwrap() in a string";
            let r = r#"raw "with" HashMap"#;
        "##;
        let ts = texts(src);
        assert!(!ts.iter().any(|t| t == "unwrap"));
        assert!(!ts.iter().any(|t| t == "HashMap"));
        assert_eq!(ts.iter().filter(|t| *t == "let").count(), 2);
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let kinds: Vec<(TokKind, String)> =
            lx.toks.iter().map(|t| (t.kind, t.text.clone())).collect();
        assert!(kinds.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(kinds.contains(&(TokKind::Char, "'x'".to_string())));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "let a = \"two\nlines\";\nlet b_cycles = 1;";
        let lx = lex(src);
        let b = lx
            .toks
            .iter()
            .find(|t| t.text == "b_cycles")
            .expect("b_cycles token");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn allow_markers_are_extracted() {
        let src = "let x = 1; // mellow-lint: allow(determinism, panic-policy) -- test\nlet y = 2;";
        let lx = lex(src);
        assert_eq!(lx.allows.len(), 1);
        assert_eq!(lx.allows[0].line, 1);
        assert_eq!(lx.allows[0].rules, vec!["determinism", "panic-policy"]);
        assert!(allowed(&lx.allows, "determinism", 1));
        assert!(allowed(&lx.allows, "determinism", 2));
        assert!(!allowed(&lx.allows, "determinism", 3));
        assert!(!allowed(&lx.allows, "clock-domain", 1));
    }

    #[test]
    fn multi_char_puncts_are_merged() {
        let ts = texts("std::time -> x => y : z");
        assert!(ts.contains(&"::".to_string()));
        assert!(ts.contains(&"->".to_string()));
        assert!(ts.contains(&"=>".to_string()));
        assert!(ts.contains(&":".to_string()));
    }
}
