//! A lightweight Rust lexer: a line/column-tracked token stream plus a
//! side-channel of line comments (for `logcl-allow` suppressions).
//!
//! Deliberately not a parser — no `syn`, no proc-macro machinery — so the
//! analyzer builds std-only inside the vendored offline environment. The
//! lints match on token *sequences*, which is exactly as much syntax as the
//! enforced invariants need: `.unwrap()`, `HashMap`, `&mut [f32]`,
//! `Instant::now`, and friends are all unambiguous at the token level once
//! strings, comments, char literals, and lifetimes are correctly skipped.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, `r#type`, ...).
    Ident(String),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime(String),
    /// Numeric literal (`0`, `1.5e-3`, `0xff`, `1_000u64`, ...).
    Num(String),
    /// Any string/char/byte-string literal, as one token carrying its raw
    /// source text (quotes, prefix and escapes included). Most lints only
    /// need to step over it; L012 looks inside.
    Str(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == name)
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// A token with its 1-based source position (column counts characters).
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// A `//` line comment, captured for suppression parsing.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Text after the `//` (leading `/` of doc comments included).
    pub text: String,
    /// True when nothing but whitespace precedes the `//` on its line.
    pub standalone: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<LineComment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// The literal token spanning `start..` up to the cursor.
    fn str_from(&self, start: usize) -> Tok {
        Tok::Str(self.chars[start..self.i].iter().collect())
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and line comments. Never fails: unterminated
/// literals simply consume to end-of-file, which is good enough for lints
/// (rustc will reject such a file anyway).
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    let mut line_has_token = false;
    let mut token_line = 1u32;

    while let Some(c) = cur.peek(0) {
        if token_line != cur.line {
            token_line = cur.line;
            line_has_token = false;
        }
        let (line, col) = (cur.line, cur.col);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                let standalone = !line_has_token;
                cur.bump();
                cur.bump();
                let mut text = String::new();
                while let Some(ch) = cur.peek(0) {
                    if ch == '\n' {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.comments.push(LineComment {
                    line,
                    text,
                    standalone,
                });
            }
            '/' if cur.peek(1) == Some('*') => {
                // Nested block comment.
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            '"' => {
                let start = cur.i;
                lex_string(&mut cur);
                push(
                    &mut out,
                    cur.str_from(start),
                    line,
                    col,
                    &mut line_has_token,
                );
            }
            '\'' => {
                // Lifetime vs char literal.
                let n1 = cur.peek(1);
                let n2 = cur.peek(2);
                let is_lifetime = match (n1, n2) {
                    (Some('\\'), _) => false,
                    (Some(a), Some('\'')) if a != '\'' => false,
                    (Some(a), _) if is_ident_start(a) => true,
                    _ => false,
                };
                if is_lifetime {
                    cur.bump(); // '
                    let mut name = String::new();
                    while let Some(ch) = cur.peek(0) {
                        if is_ident_continue(ch) {
                            name.push(ch);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    push(
                        &mut out,
                        Tok::Lifetime(name),
                        line,
                        col,
                        &mut line_has_token,
                    );
                } else {
                    let start = cur.i;
                    cur.bump(); // '
                    if cur.peek(0) == Some('\\') {
                        cur.bump();
                        cur.bump(); // escaped char (e.g. \n, \')
                                    // Unicode escapes: \u{...}
                        if cur.peek(0) == Some('{') {
                            while let Some(ch) = cur.bump() {
                                if ch == '}' {
                                    break;
                                }
                            }
                        }
                    } else {
                        cur.bump();
                    }
                    if cur.peek(0) == Some('\'') {
                        cur.bump();
                    }
                    push(
                        &mut out,
                        cur.str_from(start),
                        line,
                        col,
                        &mut line_has_token,
                    );
                }
            }
            'r' | 'b' if starts_string_prefix(&cur) => {
                let start = cur.i;
                lex_prefixed_string(&mut cur);
                push(
                    &mut out,
                    cur.str_from(start),
                    line,
                    col,
                    &mut line_has_token,
                );
            }
            _ if is_ident_start(c) => {
                let mut name = String::new();
                // Raw identifier r#name.
                if c == 'r' && cur.peek(1) == Some('#') {
                    cur.bump();
                    cur.bump();
                }
                while let Some(ch) = cur.peek(0) {
                    if is_ident_continue(ch) {
                        name.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push(&mut out, Tok::Ident(name), line, col, &mut line_has_token);
            }
            _ if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(ch) = cur.peek(0) {
                    if ch.is_alphanumeric() || ch == '_' {
                        text.push(ch);
                        cur.bump();
                    } else if ch == '.'
                        && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                        && !text.contains('.')
                    {
                        // Decimal point, but not the `..` range operator.
                        text.push(ch);
                        cur.bump();
                    } else if (ch == '+' || ch == '-')
                        && matches!(text.chars().last(), Some('e') | Some('E'))
                    {
                        // Exponent sign (1e-3).
                        text.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push(&mut out, Tok::Num(text), line, col, &mut line_has_token);
            }
            _ => {
                cur.bump();
                push(&mut out, Tok::Punct(c), line, col, &mut line_has_token);
            }
        }
    }
    out
}

fn push(out: &mut Lexed, tok: Tok, line: u32, col: u32, line_has_token: &mut bool) {
    *line_has_token = true;
    out.tokens.push(Token { tok, line, col });
}

/// True when the cursor sits on a string prefix: `r"`, `r#"`, `b"`, `br"`,
/// `b'`, `br#"` — but *not* a raw identifier (`r#match`) or plain ident.
fn starts_string_prefix(cur: &Cursor) -> bool {
    let c0 = match cur.peek(0) {
        Some(c) => c,
        None => return false,
    };
    let rest =
        |from: usize| -> (Option<char>, Option<char>) { (cur.peek(from), cur.peek(from + 1)) };
    match c0 {
        'r' => match rest(1) {
            (Some('"'), _) => true,
            (Some('#'), Some('"')) | (Some('#'), Some('#')) => {
                // r#"..."# or r##"..."## — raw ident is r#ident (ident char
                // after the single #).
                let mut j = 1;
                while cur.peek(j) == Some('#') {
                    j += 1;
                }
                cur.peek(j) == Some('"')
            }
            _ => false,
        },
        'b' => match rest(1) {
            (Some('"'), _) | (Some('\''), _) => true,
            (Some('r'), Some('"')) => true,
            (Some('r'), Some('#')) => {
                let mut j = 2;
                while cur.peek(j) == Some('#') {
                    j += 1;
                }
                cur.peek(j) == Some('"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Consumes a plain `"..."` string (cursor on the opening quote).
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // "
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a prefixed string: raw, byte, raw-byte, or byte-char.
fn lex_prefixed_string(cur: &mut Cursor) {
    let mut raw = false;
    if cur.peek(0) == Some('b') {
        cur.bump();
    }
    if cur.peek(0) == Some('r') {
        raw = true;
        cur.bump();
    }
    if !raw {
        match cur.peek(0) {
            Some('"') => lex_string(cur),
            Some('\'') => {
                // b'x' byte char
                cur.bump();
                if cur.peek(0) == Some('\\') {
                    cur.bump();
                }
                cur.bump();
                if cur.peek(0) == Some('\'') {
                    cur.bump();
                }
            }
            _ => {}
        }
        return;
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek(0) != Some('"') {
        return;
    }
    cur.bump(); // "
    loop {
        match cur.bump() {
            None => return,
            Some('"') => {
                let mut seen = 0usize;
                while seen < hashes && cur.peek(0) == Some('#') {
                    cur.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.tok.ident().map(String::from))
            .collect()
    }

    #[test]
    fn tracks_lines_and_columns() {
        let lexed = lex("fn main() {\n    x.unwrap();\n}\n");
        let unwrap = lexed
            .tokens
            .iter()
            .find(|t| t.tok.is_ident("unwrap"))
            .expect("unwrap token");
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
let a = "HashMap.unwrap()"; // unwrap in comment
/* HashMap */ let b = r#"panic!()"#;
let c = 'x'; let d = '\n';
"##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|i| i == "HashMap" || i == "unwrap" || i == "panic"));
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "let", "d"]);
    }

    #[test]
    fn comment_capture_and_standalone_flag() {
        let src = "// logcl-allow(L011): top\nlet x = 1; // trailing\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].standalone);
        assert!(lexed.comments[0].text.contains("logcl-allow(L011)"));
        assert!(!lexed.comments[1].standalone);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Lifetime(_)))
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn raw_idents_and_raw_strings() {
        let lexed = lex("let r#type = r#\"quoted \" inside\"#; let y = r#struct;");
        let ids: Vec<_> = lexed.tokens.iter().filter_map(|t| t.tok.ident()).collect();
        assert_eq!(ids, vec!["let", "type", "let", "y", "struct"]);
    }

    #[test]
    fn numbers_do_not_eat_range_operator() {
        let lexed = lex("for i in 0..10 { a[i] = 1.5e-3; }");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
    }
}
