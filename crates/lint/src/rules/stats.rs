//! L4 — stats exhaustiveness: every `*Stats` field must be referenced at
//! least twice outside its declaration — once to accumulate and once to
//! report/merge. A counter that is bumped but never read (or declared and
//! never bumped) is dead telemetry.

use super::common::close_of;
use crate::lexer::{Tok, TokKind};
use crate::{Rule, Violation};

/// A `*Stats` struct declaration found in a file: name, field names with
/// their lines, and the line span of the declaration itself.
struct StatsStruct {
    file: String,
    name: String,
    fields: Vec<(String, u32)>,
    start_line: u32,
    end_line: u32,
}

/// Collects every non-test `struct FooStats { ... }` declaration.
fn collect_stats_structs(file: &str, toks: &[Tok], excluded: &[bool]) -> Vec<StatsStruct> {
    let n = toks.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        if excluded[i] || toks[i].text != "struct" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident || !name_tok.text.ends_with("Stats") {
            i += 1;
            continue;
        }
        // Find the body open brace (skip generics; bail on tuple/unit structs).
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < n {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle == 0 => break,
                "(" | ";" if angle == 0 => {
                    j = n; // tuple or unit struct: no named fields to check
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j >= n {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut fields: Vec<(String, u32)> = Vec::new();
        let mut depth = 0usize;
        let mut k = j;
        let mut end_line = start_line;
        while k < n {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                // Skip field attributes.
                "#" if depth == 1 && k + 1 < n && toks[k + 1].text == "[" => {
                    k = close_of(toks, k + 1);
                }
                _ => {
                    // A field is `ident :` at depth 1, where the previous
                    // significant token is `{`, `,` or `)` (end of pub(crate)).
                    if depth == 1
                        && toks[k].kind == TokKind::Ident
                        && k + 1 < n
                        && toks[k + 1].text == ":"
                        && k >= 1
                        && matches!(toks[k - 1].text.as_str(), "{" | "," | ")" | "pub")
                    {
                        fields.push((toks[k].text.clone(), toks[k].line));
                    }
                }
            }
            k += 1;
        }
        out.push(StatsStruct {
            file: file.to_string(),
            name: name_tok.text.clone(),
            fields,
            start_line,
            end_line,
        });
        i = k + 1;
    }
    out
}

/// L4's cross-file state: the `*Stats` declarations and the non-test
/// identifier occurrences of every file seen so far.
#[derive(Default)]
pub(crate) struct Collector {
    structs: Vec<StatsStruct>,
    idents: Vec<(String, Vec<(String, u32)>)>,
}

impl Collector {
    /// Records one file's declarations and identifier occurrences.
    pub(crate) fn add(&mut self, file: &str, toks: &[Tok], excluded: &[bool]) {
        self.structs
            .extend(collect_stats_structs(file, toks, excluded));
        let idents = toks
            .iter()
            .zip(excluded)
            .filter(|(t, ex)| t.kind == TokKind::Ident && !**ex)
            .map(|(t, _)| (t.text.clone(), t.line))
            .collect();
        self.idents.push((file.to_string(), idents));
    }

    /// The reference check over every file added: a field fires when
    /// fewer than two occurrences lie outside its own declaration's line
    /// span.
    pub(crate) fn finish(self) -> Vec<Violation> {
        let mut out = Vec::new();
        for s in &self.structs {
            for (field, line) in &s.fields {
                let uses: usize = self
                    .idents
                    .iter()
                    .map(|(file, occs)| {
                        occs.iter()
                            .filter(|(name, occ_line)| {
                                name == field
                                    && !(file == &s.file
                                        && *occ_line >= s.start_line
                                        && *occ_line <= s.end_line)
                            })
                            .count()
                    })
                    .sum();
                if uses < 2 {
                    out.push(Violation {
                        rule: Rule::StatsExhaustiveness,
                        file: s.file.clone(),
                        line: *line,
                        message: format!(
                            "stats field `{}.{}` is referenced {} time(s) outside its declaration; \
                             every counter needs both an accumulation and a report/merge site",
                            s.name, field, uses
                        ),
                    });
                }
            }
        }
        out
    }
}
