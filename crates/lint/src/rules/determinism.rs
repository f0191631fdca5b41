//! L2 — determinism: no hash-order iteration, no wall clocks.

use super::Finding;
use crate::lexer::{Tok, TokKind};

/// Methods whose receiver being a hash collection means order-dependent
/// iteration.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers that, appearing in the consuming expression/statement, prove
/// the iteration order was normalized away (sorted, re-collected into an
/// ordered map, or reduced by an order-insensitive fold).
const NORMALIZERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "count",
    "len",
    "sum",
    "all",
    "any",
    "max",
    "min",
    "fold_commutative",
    "is_empty",
];

/// Collects the names of bindings/fields whose type (or initializer) involves
/// `HashMap`/`HashSet`. Over-approximate on purpose: an extra candidate name
/// only matters if something later iterates it.
fn hash_collection_names(toks: &[Tok]) -> Vec<String> {
    let n = toks.len();
    let mut names: Vec<String> = Vec::new();
    for i in 0..n {
        let t = &toks[i];
        // `name: ... HashMap<...>` (field, param or annotated let).
        if t.kind == TokKind::Ident && i + 1 < n && toks[i + 1].text == ":" {
            let mut j = i + 2;
            while j < n {
                let tj = &toks[j];
                if tj.text == "HashMap" || tj.text == "HashSet" {
                    names.push(t.text.clone());
                    break;
                }
                let continues = tj.text == "&"
                    || tj.text == "mut"
                    || tj.text == "::"
                    || tj.kind == TokKind::Lifetime
                    || tj.kind == TokKind::Ident;
                if !continues || j > i + 10 {
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = ... HashMap::new() ...;`
        if t.text == "let" && t.kind == TokKind::Ident && i + 1 < n {
            let mut j = i + 1;
            if toks[j].text == "mut" {
                j += 1;
            }
            if j < n && toks[j].kind == TokKind::Ident {
                let bound = &toks[j].text;
                let mut k = j + 1;
                let mut depth = 0i32;
                while k < n && k < j + 120 {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        "HashMap" | "HashSet" => {
                            names.push(bound.clone());
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Looks ahead from an iteration site for evidence the order was normalized
/// (a sort, a re-collect into an ordered map, or an order-insensitive fold).
///
/// The scan covers the rest of the current statement *and* the one after it,
/// so the blessed two-step idiom passes:
///
/// ```ignore
/// let mut rows: Vec<_> = map.iter().collect();
/// rows.sort();
/// ```
fn normalized_downstream(toks: &[Tok], from: usize) -> bool {
    let n = toks.len();
    let mut depth = 0i32;
    let mut semis = 0usize;
    let mut j = from;
    while j < n && j < from + 200 {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => {
                semis += 1;
                if semis >= 2 {
                    return false;
                }
            }
            "{" | "}" if depth <= 0 => return false,
            _ => {
                if t.kind == TokKind::Ident && NORMALIZERS.contains(&t.text.as_str()) {
                    return true;
                }
            }
        }
        j += 1;
    }
    false
}

/// L2 over one file's non-test tokens: wall-clock types and
/// un-normalized iteration over hash collections.
pub(super) fn check(toks: &[Tok], excluded: &[bool]) -> Vec<Finding> {
    let n = toks.len();
    let names = hash_collection_names(toks);
    let mut out = Vec::new();

    for i in 0..n {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];

        // Wall-clock types are banned outright in simulation crates.
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            out.push((
                t.line,
                format!(
                    "`{}` (wall clock) in a simulation crate breaks reproducibility",
                    t.text
                ),
            ));
            continue;
        }

        // `<hash collection>.iter()` and friends.
        if t.text == "."
            && i + 2 < n
            && toks[i + 1].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].text == "("
            && i >= 1
            && toks[i - 1].kind == TokKind::Ident
            && names.contains(&toks[i - 1].text)
            && !normalized_downstream(toks, i + 3)
        {
            out.push((
                toks[i + 1].line,
                format!(
                    "iteration over hash collection `{}` via `.{}()` has nondeterministic \
                     order; sort, collect into a BTreeMap/BTreeSet, or reduce \
                     order-insensitively",
                    toks[i - 1].text,
                    toks[i + 1].text
                ),
            ));
        }

        // `for k in [&mut] [self.] <hash collection> {`.
        if t.kind == TokKind::Ident && t.text == "in" {
            let mut j = i + 1;
            while j < n && (toks[j].text == "&" || toks[j].text == "mut") {
                j += 1;
            }
            if j < n && toks[j].text == "self" && j + 1 < n && toks[j + 1].text == "." {
                j += 2;
            }
            if j < n
                && toks[j].kind == TokKind::Ident
                && names.contains(&toks[j].text)
                && j + 1 < n
                && toks[j + 1].text == "{"
                && !excluded[j]
            {
                out.push((
                    toks[j].line,
                    format!(
                        "`for` loop over hash collection `{}` has nondeterministic order",
                        toks[j].text
                    ),
                ));
            }
        }
    }
    out
}
