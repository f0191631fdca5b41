//! L1 — clock-domain discipline.

use super::Finding;
use crate::lexer::{Tok, TokKind};

/// Integer type names a raw time quantity could hide behind.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float type names (casting a cycle count to one is still a domain escape).
const FLOAT_TYPES: &[&str] = &["f32", "f64"];

fn is_int_type(s: &str) -> bool {
    INT_TYPES.contains(&s)
}

fn is_numeric_type(s: &str) -> bool {
    INT_TYPES.contains(&s) || FLOAT_TYPES.contains(&s)
}

/// The name heuristic for L1: does this identifier denote a time quantity?
///
/// Deliberately conservative — plain `time`, `start`, `deadline` are *not*
/// flagged (they are usually already `SimTime`); the rule targets the naming
/// conventions this workspace actually uses for raw counts: `*_cycle(s)`,
/// `*_ps`, `*_ns`, `*_us` and the bare words `cycle`/`cycles`.
fn is_time_flavored(name: &str) -> bool {
    matches!(name, "cycle" | "cycles" | "ps" | "ns")
        || name.ends_with("_cycle")
        || name.ends_with("_cycles")
        || name.ends_with("_ps")
        || name.ends_with("_ns")
        || name.ends_with("_us")
}

/// Tokens that terminate a backward scan for the operand of an `as` cast.
fn ends_operand(t: &Tok) -> bool {
    if t.kind == TokKind::Punct {
        return matches!(
            t.text.as_str(),
            "+" | "-"
                | "*"
                | "/"
                | "%"
                | "="
                | "<"
                | ">"
                | "&"
                | "|"
                | "^"
                | ","
                | ";"
                | "{"
                | "}"
                | "!"
                | "?"
                | ":"
                | "=>"
                | "->"
        );
    }
    if t.kind == TokKind::Ident {
        return matches!(
            t.text.as_str(),
            "return" | "if" | "else" | "match" | "in" | "as" | "let" | "while"
        );
    }
    false
}

/// L1 over one file's non-test tokens: raw casts of time-flavored
/// operands, raw-integer time declarations and time-named functions
/// returning raw integers.
pub(super) fn check(toks: &[Tok], excluded: &[bool]) -> Vec<Finding> {
    let n = toks.len();
    let mut out = Vec::new();

    for i in 0..n {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];

        // (a) `<time-flavored expr> as <numeric type>`: a raw cast out of (or
        // into) a clock domain. Walk backwards over the operand collecting
        // identifiers.
        if t.kind == TokKind::Ident
            && t.text == "as"
            && i + 1 < n
            && toks[i + 1].kind == TokKind::Ident
            && is_numeric_type(&toks[i + 1].text)
        {
            let mut depth = 0i32;
            let mut j = i as i64 - 1;
            let mut culprit: Option<&str> = None;
            let floor = i.saturating_sub(40) as i64;
            while j >= floor {
                let tj = &toks[j as usize];
                match tj.text.as_str() {
                    ")" | "]" => depth += 1,
                    "(" | "[" => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    _ => {
                        if depth == 0 && ends_operand(tj) {
                            break;
                        }
                        if tj.kind == TokKind::Ident && is_time_flavored(&tj.text) {
                            culprit = Some(&tj.text);
                        }
                    }
                }
                j -= 1;
            }
            if let Some(name) = culprit {
                out.push((
                    t.line,
                    format!(
                        "raw `as {}` cast involving time-domain quantity `{}`; \
                         use CoreCycles/MemCycles/SimTime conversions instead",
                        toks[i + 1].text,
                        name
                    ),
                ));
            }
        }

        // (b) declaring a time-flavored binding/field/param with a raw
        // integer type: `head_blocked_cycles: u64`.
        if t.kind == TokKind::Ident
            && is_time_flavored(&t.text)
            && i + 1 < n
            && toks[i + 1].text == ":"
        {
            let mut j = i + 2;
            while j < n
                && (toks[j].text == "&"
                    || toks[j].text == "mut"
                    || toks[j].kind == TokKind::Lifetime)
            {
                j += 1;
            }
            if j < n && toks[j].kind == TokKind::Ident && is_int_type(&toks[j].text) {
                out.push((
                    t.line,
                    format!(
                        "time-domain quantity `{}` declared as raw `{}`; \
                         use CoreCycles, MemCycles, SimTime or Duration",
                        t.text, toks[j].text
                    ),
                ));
            }
        }

        // (c) a function with a time-flavored name returning a raw integer.
        if t.kind == TokKind::Ident && t.text == "fn" && i + 1 < n {
            let name = &toks[i + 1];
            if name.kind == TokKind::Ident && is_time_flavored(&name.text) {
                // Scan the signature for `-> <int type>` before the body.
                let mut j = i + 2;
                let mut depth = 0i32;
                while j < n {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" | ";" if depth == 0 => break,
                        "->" if depth == 0 => {
                            if j + 1 < n
                                && toks[j + 1].kind == TokKind::Ident
                                && is_int_type(&toks[j + 1].text)
                            {
                                out.push((
                                    name.line,
                                    format!(
                                        "fn `{}` returns raw `{}`; return a typed \
                                         cycle/time quantity instead",
                                        name.text,
                                        toks[j + 1].text
                                    ),
                                ));
                            }
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
    }
    out
}
