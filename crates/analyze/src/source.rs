//! A lexed source file plus the structural facts every lint needs:
//! test-code spans (`#[cfg(test)] mod … { }`), inline `logcl-allow`
//! suppressions, `use`-statement spans, and — since the interprocedural
//! concurrency lints (L009–L011) — a function-item index: every `fn` with
//! its body token range, owning `impl` type, and return-type span.

use std::collections::BTreeMap;

use crate::lexer::{lex, Lexed, Tok, Token};

/// One inline suppression: `// logcl-allow(L00x): reason`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The suppressed lint id (e.g. `"L011"`).
    pub lint: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Justification text after the colon.
    pub reason: String,
    /// Whether the comment stands on its own line (applies to the next
    /// code line) or trails code (applies to its own line).
    pub standalone: bool,
}

/// A malformed `logcl-allow` comment (missing id or empty reason) — itself
/// reported as a diagnostic so typos cannot silently disable enforcement.
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// A lexed file ready for linting.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Suppression comments, in source order.
    pub allows: Vec<Allow>,
    /// Malformed suppression comments.
    pub bad_allows: Vec<BadAllow>,
    /// Token-index ranges `[start, end)` covering `#[cfg(test)] mod` bodies.
    test_spans: Vec<(usize, usize)>,
    /// Token-index ranges `[start, end)` covering `use …;` statements.
    use_spans: Vec<(usize, usize)>,
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Lines on which code tokens exist (for standalone-allow targeting).
    code_lines: BTreeMap<u32, ()>,
}

/// One parsed `fn` item — the function-granular unit the interprocedural
/// concurrency lints (L009–L011) reason over. Parsed lexically: generics
/// are skipped by angle-bracket matching, bodies by brace matching; no
/// full grammar, no `syn`.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`run`, `lock_state`, …).
    pub name: String,
    /// Enclosing `impl` type when the fn sits inside an impl block
    /// (`impl Pool { fn run … }` → `Some("Pool")`).
    pub owner: Option<String>,
    /// Token index of the `fn` keyword (for reporting).
    pub decl: usize,
    /// Token range `[start, end)` of the body block, braces included.
    pub body: (usize, usize),
    /// Token range `[start, end)` of the return type (tokens after `->`
    /// up to the body brace); empty range when the fn returns `()`.
    pub ret: (usize, usize),
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(source);
        let test_spans = find_test_spans(&tokens);
        let use_spans = find_use_spans(&tokens);
        let fns = find_fn_items(&tokens);
        let mut allows = Vec::new();
        let mut bad_allows = Vec::new();
        for c in &comments {
            match parse_allow(&c.text) {
                AllowParse::None => {}
                AllowParse::Ok { lint, reason } => allows.push(Allow {
                    lint,
                    line: c.line,
                    reason,
                    standalone: c.standalone,
                }),
                AllowParse::Bad(problem) => bad_allows.push(BadAllow {
                    line: c.line,
                    problem,
                }),
            }
        }
        let mut code_lines = BTreeMap::new();
        for t in &tokens {
            code_lines.insert(t.line, ());
        }
        SourceFile {
            path: path.to_string(),
            tokens,
            allows,
            bad_allows,
            test_spans,
            use_spans,
            fns,
            code_lines,
        }
    }

    /// True when token index `i` lies inside a `#[cfg(test)] mod` body.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// True when token index `i` lies inside a `use …;` statement.
    pub fn in_use_statement(&self, i: usize) -> bool {
        self.use_spans.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// The lines a standalone allow at `line` could target: the next line
    /// that holds any code token.
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        self.code_lines.range(line + 1..).next().map(|(&l, _)| l)
    }
}

enum AllowParse {
    None,
    Ok { lint: String, reason: String },
    Bad(String),
}

/// Parses `logcl-allow(L00x): reason` out of a comment body. Only plain
/// `//` comments whose text *starts* with `logcl-allow` count — doc
/// comments (`///`, `//!`) and prose that merely mentions the directive
/// mid-sentence are documentation, not suppressions.
fn parse_allow(text: &str) -> AllowParse {
    if text.starts_with('/') || text.starts_with('!') {
        return AllowParse::None;
    }
    let trimmed = text.trim_start();
    if !trimmed.starts_with("logcl-allow") {
        return AllowParse::None;
    }
    let rest = &trimmed["logcl-allow".len()..];
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Bad("expected `logcl-allow(L00x): reason`".into());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Bad("unclosed lint id: expected `logcl-allow(L00x): reason`".into());
    };
    let lint = rest[..close].trim().to_string();
    let valid_id =
        lint.len() == 4 && lint.starts_with('L') && lint[1..].chars().all(|c| c.is_ascii_digit());
    if !valid_id {
        return AllowParse::Bad(format!("invalid lint id {lint:?} in logcl-allow"));
    }
    let after = &rest[close + 1..];
    let Some(reason) = after.strip_prefix(':') else {
        return AllowParse::Bad(format!(
            "logcl-allow({lint}) needs a written reason: `logcl-allow({lint}): why`"
        ));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return AllowParse::Bad(format!(
            "logcl-allow({lint}) needs a non-empty reason after the colon"
        ));
    }
    AllowParse::Ok {
        lint,
        reason: reason.to_string(),
    }
}

/// Finds `#[cfg(test)]` items: `mod name { … }` bodies, or the next item's
/// statement or block (token-index ranges). The attribute may nest
/// (`cfg(all(test, …))`); any `test` ident inside the `cfg(…)` counts.
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].tok.is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].tok.is_punct('['))
        {
            i += 1;
            continue;
        }
        // Scan the attribute body for `cfg` and `test`.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1i32; // the [
        let (mut cfg, mut test) = (false, false);
        while j < tokens.len() && depth > 0 {
            match &tokens[j].tok {
                t if t.is_punct('[') => depth += 1,
                t if t.is_punct(']') => depth -= 1,
                t if t.is_ident("cfg") => cfg = true,
                t if t.is_ident("test") => test = true,
                _ => {}
            }
            j += 1;
        }
        if !(cfg && test) {
            i = attr_start + 1;
            continue;
        }
        // Skip any further attributes, then expect `mod`.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].tok.is_punct('#') && tokens[k + 1].tok.is_punct('[')
        {
            let mut d = 1i32;
            k += 2;
            while k < tokens.len() && d > 0 {
                if tokens[k].tok.is_punct('[') {
                    d += 1;
                } else if tokens[k].tok.is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        let is_mod = tokens.get(k).is_some_and(|t| t.tok.is_ident("mod"));
        if !is_mod {
            // `#[cfg(test)]` on a use/fn/item — treat the next item's body
            // (to the end of its statement or block) as test code too.
            let (end, _) = skip_item(tokens, k);
            spans.push((attr_start, end));
            i = end;
            continue;
        }
        // Find the opening brace of the module body.
        let mut b = k;
        while b < tokens.len() && !tokens[b].tok.is_punct('{') {
            if tokens[b].tok.is_punct(';') {
                break; // `mod tests;` — out-of-line, nothing to span here
            }
            b += 1;
        }
        if b >= tokens.len() || !tokens[b].tok.is_punct('{') {
            i = k + 1;
            continue;
        }
        let mut d = 1i32;
        let mut e = b + 1;
        while e < tokens.len() && d > 0 {
            if tokens[e].tok.is_punct('{') {
                d += 1;
            } else if tokens[e].tok.is_punct('}') {
                d -= 1;
            }
            e += 1;
        }
        spans.push((attr_start, e));
        i = e;
    }
    spans
}

/// Skips one item starting at token `start`: consumes to the first `;` at
/// brace-depth 0 or past a top-level `{ … }` block. Returns `(end, _)`.
fn skip_item(tokens: &[Token], start: usize) -> (usize, ()) {
    let mut i = start;
    let mut depth = 0i32;
    while i < tokens.len() {
        if tokens[i].tok.is_punct('{') {
            depth += 1;
        } else if tokens[i].tok.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return (i + 1, ());
            }
        } else if tokens[i].tok.is_punct(';') && depth == 0 {
            return (i + 1, ());
        }
        i += 1;
    }
    (tokens.len(), ())
}

/// Finds `use …;` statement spans so type-name lints can skip imports.
fn find_use_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok.is_ident("use") {
            let start = i;
            while i < tokens.len() && !tokens[i].tok.is_punct(';') {
                i += 1;
            }
            spans.push((start, i.min(tokens.len())));
        }
        i += 1;
    }
    spans
}

/// Finds every `impl` block and the type it implements on: the region
/// `[body_start, body_end)` of its braces plus the owner type name. For
/// `impl Trait for Type` the owner is `Type`; paths take their last
/// segment (`impl fmt::Display for WalError` → `WalError`).
fn find_impl_regions(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].tok.is_ident("impl") {
            i += 1;
            continue;
        }
        // Header: from `impl` to the opening `{` (or `;` — never valid,
        // but bail safely). Track the last ident seen after `for` if a
        // `for` appears at angle-depth 0, else the last ident overall
        // before any `<` opening the self-type's generics.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut owner: Option<String> = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                t if t.is_punct('{') && angle == 0 => break,
                t if t.is_punct(';') && angle == 0 => break,
                t if t.is_punct('<') => angle += 1,
                // `->` inside generic bounds (`Fn() -> T`) must not close
                // an angle level.
                t if t.is_punct('>') && !(j > 0 && tokens[j - 1].tok.is_punct('-')) => {
                    angle -= 1;
                }
                t if t.is_ident("for") && angle == 0 => owner = None,
                t if t.is_ident("where") && angle == 0 => {
                    // where-clause idents are bounds, not the owner type.
                    while j < tokens.len() && !tokens[j].tok.is_punct('{') {
                        j += 1;
                    }
                    break;
                }
                Tok::Ident(name) if angle == 0 => {
                    // First ident of the current type, or a later path
                    // segment (`fmt::Display` → keep `Display`). A `for`
                    // resets `owner`, so the self type always wins.
                    let path_cont = tokens[j - 1].tok.is_punct(':');
                    if owner.is_none() || path_cont {
                        owner = Some(name.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].tok.is_punct('{') {
            i = j;
            continue;
        }
        let body_start = j;
        let mut depth = 0i32;
        let mut e = j;
        while e < tokens.len() {
            if tokens[e].tok.is_punct('{') {
                depth += 1;
            } else if tokens[e].tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    e += 1;
                    break;
                }
            }
            e += 1;
        }
        if let Some(name) = owner {
            regions.push((name, body_start, e));
        }
        // Continue scanning *inside* the impl body too: it holds the fns.
        i = body_start + 1;
    }
    regions
}

/// Finds every `fn` item that has a body. Trait-method declarations
/// (`fn f(…);`) are skipped — there is nothing to analyze. Generics on the
/// fn are skipped by angle matching (with the `->`-inside-bounds caveat);
/// the parameter list by paren matching; the return type is everything
/// between `->` and the body `{` (or a `where` clause).
fn find_fn_items(tokens: &[Token]) -> Vec<FnItem> {
    let impls = find_impl_regions(tokens);
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].tok.is_ident("fn") {
            i += 1;
            continue;
        }
        let decl = i;
        let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let name = name.clone();
        let mut j = i + 2;
        // Skip `<…>` generics on the fn itself.
        if tokens.get(j).is_some_and(|t| t.tok.is_punct('<')) {
            let mut angle = 0i32;
            while j < tokens.len() {
                if tokens[j].tok.is_punct('<') {
                    angle += 1;
                } else if tokens[j].tok.is_punct('>') && !(j > 0 && tokens[j - 1].tok.is_punct('-'))
                {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Parameter list.
        if !tokens.get(j).is_some_and(|t| t.tok.is_punct('(')) {
            i += 1;
            continue;
        }
        let mut paren = 0i32;
        while j < tokens.len() {
            if tokens[j].tok.is_punct('(') {
                paren += 1;
            } else if tokens[j].tok.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        // Optional return type, then the body `{` (or `;` for a bare decl).
        let mut ret = (j, j);
        let mut k = j;
        if k + 1 < tokens.len() && tokens[k].tok.is_punct('-') && tokens[k + 1].tok.is_punct('>') {
            let start = k + 2;
            let mut e = start;
            let mut angle = 0i32;
            while e < tokens.len() {
                match &tokens[e].tok {
                    t if t.is_punct('<') => angle += 1,
                    t if t.is_punct('>') && !(e > 0 && tokens[e - 1].tok.is_punct('-')) => {
                        angle -= 1
                    }
                    t if t.is_punct('{') && angle <= 0 => break,
                    t if t.is_punct(';') && angle <= 0 => break,
                    t if t.is_ident("where") && angle <= 0 => break,
                    _ => {}
                }
                e += 1;
            }
            ret = (start, e);
            k = e;
        }
        while k < tokens.len() && !tokens[k].tok.is_punct('{') && !tokens[k].tok.is_punct(';') {
            k += 1;
        }
        if k >= tokens.len() || tokens[k].tok.is_punct(';') {
            i = k.max(i + 1);
            continue; // trait-method declaration: no body
        }
        let body_start = k;
        let mut depth = 0i32;
        let mut e = k;
        while e < tokens.len() {
            if tokens[e].tok.is_punct('{') {
                depth += 1;
            } else if tokens[e].tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    e += 1;
                    break;
                }
            }
            e += 1;
        }
        let owner = impls
            .iter()
            .filter(|&&(_, s, end)| decl > s && decl < end)
            .min_by_key(|&&(_, s, end)| end - s) // innermost impl wins
            .map(|(n, _, _)| n.clone());
        fns.push(FnItem {
            name,
            owner,
            decl,
            body: (body_start, e),
            ret,
        });
        // Scan inside the body too: nested fns are rare but legal.
        i = body_start + 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_span_covers_body() {
        let src = "fn lib() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { b.unwrap(); }\n}\nfn tail() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.tok.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test_code(unwraps[0]));
        assert!(f.in_test_code(unwraps[1]));
        let tail = f
            .tokens
            .iter()
            .position(|t| t.tok.is_ident("tail"))
            .expect("tail token");
        assert!(!f.in_test_code(tail));
    }

    #[test]
    fn allow_parsing_good_and_bad() {
        let src = "// logcl-allow(L011): telemetry counter\nlet x = 1;\n// logcl-allow(L3): typo\n// logcl-allow(L004):\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].lint, "L011");
        assert_eq!(f.allows[0].reason, "telemetry counter");
        assert!(f.allows[0].standalone);
        assert_eq!(f.bad_allows.len(), 2);
    }

    #[test]
    fn use_spans_cover_imports() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8>; }\n";
        let f = SourceFile::parse("x.rs", src);
        let positions: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.tok.is_ident("HashMap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positions.len(), 2);
        assert!(f.in_use_statement(positions[0]));
        assert!(!f.in_use_statement(positions[1]));
    }

    #[test]
    fn fn_items_capture_name_owner_body_and_return_type() {
        let src = "\
fn free(x: u8) -> std::sync::MutexGuard<'static, u8> { body(x) }
impl Pool {
    fn run<F: Fn(usize) -> ()>(&self, f: F) { f(1) }
}
impl fmt::Display for wal::WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"e\") }
}
trait T { fn decl_only(&self); }
";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<(&str, Option<&str>)> = f
            .fns
            .iter()
            .map(|i| (i.name.as_str(), i.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("run", Some("Pool")),
                ("fmt", Some("WalError")),
            ]
        );
        let free = &f.fns[0];
        assert!(f.tokens[free.ret.0..free.ret.1]
            .iter()
            .any(|t| t.tok.is_ident("MutexGuard")));
        assert!(f.tokens[free.body.0].tok.is_punct('{'));
        assert!(f.tokens[free.body.1 - 1].tok.is_punct('}'));
        // `run` returns unit: empty return-type span.
        let run = &f.fns[1];
        assert_eq!(run.ret.0, run.ret.1);
    }

    #[test]
    fn next_code_line_skips_blank_and_comment_lines() {
        let src = "// logcl-allow(L011): reason\n\n// another comment\nx.fetch_add(1);\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.next_code_line(1), Some(4));
    }
}
