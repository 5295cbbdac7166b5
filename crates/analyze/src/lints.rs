//! The lint registry and every lint implementation.
//!
//! Each lint is a pure function over one lexed [`SourceFile`]; scoping
//! (which paths it applies to) lives in [`crate::config`], and suppression
//! (`logcl-allow`) is applied by the engine afterwards, so lints here simply
//! report every match.

use crate::config::{self, Scope};
use crate::lexer::{Tok, Token};
use crate::source::SourceFile;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint id (`"L001"`…; `"L000"` is the engine's meta lint).
    pub lint: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong, specifically.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(lint: &str, file: &SourceFile, t: &Token, message: String) -> Diagnostic {
        Diagnostic {
            lint: lint.to_string(),
            path: file.path.clone(),
            line: t.line,
            col: t.col,
            message,
        }
    }
}

/// How a lint runs: over one file at a time, or once over every in-scope
/// file together (the interprocedural lints need the whole slice to build
/// the call graph and cross-file lock-order edges).
#[derive(Clone, Copy)]
pub enum LintPass {
    /// Runs independently per in-scope file.
    PerFile(fn(&SourceFile, &mut Vec<Diagnostic>)),
    /// Runs once over all in-scope files.
    Workspace(fn(&[&SourceFile], &mut Vec<Diagnostic>)),
}

/// A registered lint.
pub struct LintDef {
    /// Stable id, `L001`…
    pub id: &'static str,
    /// Short name for listings.
    pub name: &'static str,
    /// The invariant it protects (one line, shown in `lints` output).
    pub invariant: &'static str,
    /// Which PR's guarantee this lint machine-checks.
    pub origin: &'static str,
    /// How (and over what granularity) the lint runs.
    pub pass: LintPass,
    /// Path scope. Lints with several rule groups (L012) check additional
    /// scopes internally; this is the union.
    pub scope: Scope,
}

/// The engine's built-in meta lint (malformed/unused `logcl-allow`). Not in
/// [`registry`] — it has no `pass` of its own — but documented alongside it
/// so generated listings (CLI `lints`, fixtures/README.md) stay complete.
pub const META_LINT: (&str, &str, &str, &str) = (
    "L000",
    "allow-hygiene",
    "every logcl-allow is well-formed and suppresses a live violation",
    "PR 4 (engine meta lint)",
);

/// All lints, in id order.
pub fn registry() -> &'static [LintDef] {
    &[
        LintDef {
            id: "L001",
            name: "kernel-boundary",
            invariant: "raw f32/f64 buffer compute only inside crates/tensor/src/kernels/",
            origin: "PR 3 (pluggable Backend, bit-identical kernels)",
            pass: LintPass::PerFile(l001_kernel_boundary),
            scope: config::L001_SCOPE,
        },
        LintDef {
            id: "L004",
            name: "fsync-discipline",
            invariant: "atomic replace needs an fsync before the rename; append-mode \
                        writers (WALs) need an fsync somewhere in the file",
            origin: "PR 2 (durable atomic checkpoints) + PR 7 (WAL group commit)",
            pass: LintPass::PerFile(l004_fsync_discipline),
            scope: config::L004_SCOPE,
        },
        LintDef {
            id: "L005",
            name: "lock-hygiene",
            invariant: "a held mutex guard must not span a blocking wait on another primitive",
            origin: "PR 3 (kernel pool) + PR 1 (serve batcher)",
            pass: LintPass::Workspace(crate::concurrency::l005_lock_hygiene),
            scope: config::LOCK_SCOPE,
        },
        LintDef {
            id: "L006",
            name: "error-context",
            invariant: "public Results carry typed errors, not Box<dyn Error> or String",
            origin: "PR 2 (typed checkpoint/dataset/training errors)",
            pass: LintPass::PerFile(l006_error_context),
            scope: config::L006_SCOPE,
        },
        LintDef {
            id: "L007",
            name: "head-indexing",
            invariant: "no literal-zero indexing of request/batch data in the serving stack",
            origin: "PR 1 (serve) + PR 2 (fail-closed request validation)",
            pass: LintPass::PerFile(l007_head_indexing),
            scope: config::L007_SCOPE,
        },
        LintDef {
            id: "L009",
            name: "lock-order",
            invariant: "the cross-file lock-acquisition graph is acyclic (one global order)",
            origin: "PR 9 (interprocedural concurrency analysis)",
            pass: LintPass::Workspace(crate::concurrency::l009_lock_order),
            scope: config::LOCK_SCOPE,
        },
        LintDef {
            id: "L010",
            name: "blocking-under-lock",
            invariant: "no fsync/sleep/socket-write (or, via calls, channel/condvar wait) \
                        reachable while a guard is live",
            origin: "PR 9 (interprocedural concurrency analysis)",
            pass: LintPass::Workspace(crate::concurrency::l010_blocking_under_lock),
            scope: config::LOCK_SCOPE,
        },
        LintDef {
            id: "L011",
            name: "atomic-ordering",
            invariant: "Ordering::Relaxed only in the telemetry plane or under a written \
                        justification",
            origin: "PR 9 (interprocedural concurrency analysis)",
            pass: LintPass::PerFile(crate::concurrency::l011_atomic_ordering),
            scope: config::L011_SCOPE,
        },
        LintDef {
            id: "L012",
            name: "wire-boundary",
            invariant: "the HTTP version token and TcpStream::connect* only inside \
                        crates/serve/src/http.rs; TcpListener::bind only inside \
                        crates/serve/src/listener.rs",
            origin: "PR 13 (one HTTP/1.1 codec and one client) + PR 19 (one connection loop)",
            pass: LintPass::PerFile(l012_wire_boundary),
            scope: config::L012_SCOPE,
        },
    ]
}

/// The lint def for `id`, if registered.
pub fn lint_by_id(id: &str) -> Option<&'static LintDef> {
    registry().iter().find(|l| l.id == id)
}

/// The full lint listing — meta lint first, then the registry — as
/// `(id, name, invariant, origin)` rows. The single source both the CLI
/// `lints` command and the generated fixtures/README.md table render from,
/// so a newly registered lint cannot stay undocumented.
pub fn lint_rows() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    let mut rows = vec![META_LINT];
    rows.extend(
        registry()
            .iter()
            .map(|l| (l.id, l.name, l.invariant, l.origin)),
    );
    rows
}

/// The lint table as GitHub markdown (used verbatim in fixtures/README.md;
/// a test pins the file to this output).
pub fn lint_table_markdown() -> String {
    let mut out = String::from("| id | name | invariant | origin |\n|---|---|---|---|\n");
    for (id, name, invariant, origin) in lint_rows() {
        let one_line = invariant.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!("| {id} | {name} | {one_line} | {origin} |\n"));
    }
    out
}

// ------------------------------------------------------------------ helpers

/// A token-sequence pattern element.
enum Pat {
    /// Exactly this identifier.
    I(&'static str),
    /// Exactly this punctuation char.
    P(char),
}

fn match_at(tokens: &[Token], i: usize, pats: &[Pat]) -> bool {
    if i + pats.len() > tokens.len() {
        return false;
    }
    pats.iter().enumerate().all(|(k, p)| match p {
        Pat::I(name) => tokens[i + k].tok.is_ident(name),
        Pat::P(c) => tokens[i + k].tok.is_punct(*c),
    })
}

// --------------------------------------------------------------------- L001

/// Raw-buffer compute outside the kernel boundary: `&mut [f32]`/`&mut [f64]`
/// signatures, mutable slice partitioning (`chunks_mut`, `split_at_mut`),
/// and raw-pointer buffer access. Inner loops over tensor data belong in
/// `crates/tensor/src/kernels/`, where property tests hold them to scalar
/// references bit for bit.
fn l001_kernel_boundary(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    for i in 0..ts.len() {
        if file.in_test_code(i) {
            continue;
        }
        let float_slice = |j: usize| {
            match_at(ts, j, &[Pat::P('['), Pat::I("f32"), Pat::P(']')])
                || match_at(ts, j, &[Pat::P('['), Pat::I("f64"), Pat::P(']')])
        };
        if match_at(ts, i, &[Pat::P('&'), Pat::I("mut")]) && float_slice(i + 2) {
            out.push(Diagnostic::new(
                "L001",
                file,
                &ts[i],
                "mutable raw float-buffer (`&mut [f32]`/`&mut [f64]`) outside \
                 crates/tensor/src/kernels/ — move the inner loop into the kernels"
                    .into(),
            ));
        }
        for name in ["chunks_mut", "chunks_exact_mut", "split_at_mut"] {
            if match_at(ts, i, &[Pat::P('.'), Pat::I(name), Pat::P('(')]) {
                out.push(Diagnostic::new(
                    "L001",
                    file,
                    &ts[i + 1],
                    format!(
                        "mutable slice partitioning (`.{name}`) outside the kernel boundary — \
                         parallel buffer decomposition belongs in crates/tensor/src/kernels/"
                    ),
                ));
            }
        }
        for name in ["from_raw_parts", "from_raw_parts_mut", "as_mut_ptr"] {
            if ts[i].tok.is_ident(name) && !file.in_use_statement(i) {
                out.push(Diagnostic::new(
                    "L001",
                    file,
                    &ts[i],
                    format!("raw-pointer buffer access (`{name}`) outside the kernel boundary"),
                ));
            }
        }
    }
}

// --------------------------------------------------------------------- L012

/// A second HTTP implementation growing outside `crates/serve/src/http.rs`:
/// a string literal that spells the protocol version (nobody writes
/// `HTTP/1.` except to put a start line on the wire or to parse one), or an
/// outbound `TcpStream::connect*`. Everything else speaks through
/// `http::Client`, so head bounds, fail-closed framing and timeouts are
/// decided once. And the inbound half: a `TcpListener::bind` outside
/// `crates/serve/src/listener.rs` is a second accept loop. Test code may do
/// all three — malformed and stalled input has to be written by hand, and a
/// scripted peer has to listen somewhere.
fn l012_wire_boundary(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    let outbound = config::L012_OUTBOUND_SCOPE.contains(&file.path);
    let inbound = config::L012_INBOUND_SCOPE.contains(&file.path);
    for i in 0..ts.len() {
        if file.in_test_code(i) {
            continue;
        }
        if outbound && matches!(&ts[i].tok, Tok::Str(text) if text.contains("HTTP/1.")) {
            out.push(Diagnostic::new(
                "L012",
                file,
                &ts[i],
                "HTTP version token in a string literal outside crates/serve/src/http.rs — \
                 write and parse messages through logcl_serve::http"
                    .into(),
            ));
        }
        if outbound
            && match_at(ts, i, &[Pat::I("TcpStream"), Pat::P(':'), Pat::P(':')])
            && ts
                .get(i + 3)
                .and_then(|t| t.tok.ident())
                .is_some_and(|name| name.starts_with("connect"))
        {
            out.push(Diagnostic::new(
                "L012",
                file,
                &ts[i],
                "outbound `TcpStream::connect*` outside crates/serve/src/http.rs — \
                 go through logcl_serve::http::Client"
                    .into(),
            ));
        }
        if inbound
            && match_at(
                ts,
                i,
                &[
                    Pat::I("TcpListener"),
                    Pat::P(':'),
                    Pat::P(':'),
                    Pat::I("bind"),
                ],
            )
        {
            out.push(Diagnostic::new(
                "L012",
                file,
                &ts[i],
                "`TcpListener::bind` outside crates/serve/src/listener.rs — \
                 accept connections through logcl_serve::listener::Listener"
                    .into(),
            ));
        }
    }
}

// --------------------------------------------------------------------- L004

/// Atomic-replace durability: a file that creates files *and* renames them
/// is doing the tmp-then-rename dance; every `rename` must be preceded (in
/// the file) by an `fsync` (`sync_all`/`sync_data`), otherwise a crash can
/// publish a name pointing at unflushed bytes.
///
/// Append-mode durability (PR 7 WAL discipline): a file that opens a file
/// with `OpenOptions ... .append(true)` is a log-shaped writer; if the file
/// never fsyncs, every acked append can be lost on crash. The
/// `OpenOptions` lookback keeps `Vec::append`/`wal.append` out of scope.
fn l004_fsync_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    let any_sync = (0..ts.len()).any(|i| {
        !file.in_test_code(i) && (ts[i].tok.is_ident("sync_all") || ts[i].tok.is_ident("sync_data"))
    });
    if !any_sync {
        for i in 0..ts.len() {
            if file.in_test_code(i) {
                continue;
            }
            let is_append = match_at(ts, i, &[Pat::P('.'), Pat::I("append"), Pat::P('(')])
                && ts[..i]
                    .iter()
                    .rev()
                    .take(24)
                    .any(|t| t.tok.is_ident("OpenOptions"));
            if is_append {
                out.push(Diagnostic::new(
                    "L004",
                    file,
                    &ts[i + 1],
                    "append-mode file writer in a file with no fsync — a write-ahead \
                     log that never calls sync_all()/sync_data() can lose every acked \
                     append on crash (PR 7 WAL discipline)"
                        .into(),
                ));
            }
        }
    }
    let creates = (0..ts.len()).any(|i| {
        !file.in_test_code(i)
            && (match_at(
                ts,
                i,
                &[Pat::I("File"), Pat::P(':'), Pat::P(':'), Pat::I("create")],
            ) || match_at(ts, i, &[Pat::P('.'), Pat::I("create"), Pat::P('(')])
                && i > 0
                && ts[..i]
                    .iter()
                    .rev()
                    .take(8)
                    .any(|t| t.tok.is_ident("OpenOptions")))
    });
    if !creates {
        return;
    }
    let mut synced_before = vec![false; ts.len()];
    let mut seen_sync = false;
    for i in 0..ts.len() {
        if !file.in_test_code(i)
            && (ts[i].tok.is_ident("sync_all") || ts[i].tok.is_ident("sync_data"))
        {
            seen_sync = true;
        }
        synced_before[i] = seen_sync;
    }
    for i in 0..ts.len() {
        if file.in_test_code(i) {
            continue;
        }
        let is_rename = match_at(ts, i, &[Pat::I("rename"), Pat::P('(')])
            && !file.in_use_statement(i)
            // `fs::rename(` or `.rename(` — not a local fn definition.
            && !(i > 0 && ts[i - 1].tok.is_ident("fn"));
        if is_rename && !synced_before[i] {
            out.push(Diagnostic::new(
                "L004",
                file,
                &ts[i],
                "rename without a preceding fsync in a file that creates files — the \
                 atomic-replace pattern must sync_all() the tmp file (and ideally the \
                 directory) before renaming (PR 2 checkpoint discipline)"
                    .into(),
            ));
        }
    }
}

// --------------------------------------------------------------------- L006

/// Error-context discipline at crate boundaries: no `Box<dyn …Error…>`
/// anywhere in scoped library code, and no `pub fn … -> Result<_, String>`.
/// Stringly-typed errors destroy the caller's ability to branch on failure
/// kind — PR 2 introduced typed `CheckpointError`/`DatasetError`/
/// `TrainError` for exactly this reason.
fn l006_error_context(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    for i in 0..ts.len() {
        if file.in_test_code(i) {
            continue;
        }
        // Box<dyn …Error…>
        if match_at(ts, i, &[Pat::I("Box"), Pat::P('<'), Pat::I("dyn")]) {
            let mut d = 1i32;
            let mut j = i + 2;
            let mut has_error = false;
            while j < ts.len() && d > 0 && j < i + 24 {
                match &ts[j].tok {
                    t if t.is_punct('<') => d += 1,
                    t if t.is_punct('>') => d -= 1,
                    Tok::Ident(n) if n.ends_with("Error") => has_error = true,
                    _ => {}
                }
                j += 1;
            }
            if has_error {
                out.push(Diagnostic::new(
                    "L006",
                    file,
                    &ts[i],
                    "`Box<dyn Error>` erases the failure type at a crate boundary — \
                     define a typed error enum with Display + From conversions (PR 2 style)"
                        .into(),
                ));
            }
        }
        // pub fn … -> Result<…, String>
        if ts[i].tok.is_ident("pub") {
            if let Some((ret_start, ret_end, fn_tok)) = pub_fn_return_span(ts, i) {
                if result_with_string_error(&ts[ret_start..ret_end]) {
                    out.push(Diagnostic::new(
                        "L006",
                        file,
                        fn_tok,
                        "public fn returns `Result<_, String>` — stringly-typed errors \
                         cross the crate boundary untyped; define an error enum and map \
                         with `?`/From instead"
                            .into(),
                    ));
                }
            }
        }
    }
}

/// For a `pub` at `i` introducing a fn, the token span of its return type
/// (after `->`, before body/where/`;`), plus the `fn` token for reporting.
fn pub_fn_return_span(ts: &[Token], i: usize) -> Option<(usize, usize, &Token)> {
    let mut j = i + 1;
    // pub(crate) / pub(super) / pub(in path)
    if ts.get(j).is_some_and(|t| t.tok.is_punct('(')) {
        let mut d = 1;
        j += 1;
        while j < ts.len() && d > 0 {
            if ts[j].tok.is_punct('(') {
                d += 1;
            } else if ts[j].tok.is_punct(')') {
                d -= 1;
            }
            j += 1;
        }
    }
    // Qualifiers before `fn`.
    while ts
        .get(j)
        .is_some_and(|t| matches!(t.tok.ident(), Some("const" | "async" | "unsafe" | "extern")))
    {
        j += 1;
        if ts.get(j).is_some_and(|t| matches!(t.tok, Tok::Str(_))) {
            j += 1; // extern "C"
        }
    }
    if !ts.get(j).is_some_and(|t| t.tok.is_ident("fn")) {
        return None;
    }
    let fn_tok = &ts[j];
    // Skip name and generics to the parameter list.
    let mut k = j + 1;
    while k < ts.len() && !ts[k].tok.is_punct('(') {
        if ts[k].tok.is_punct('{') || ts[k].tok.is_punct(';') {
            return None;
        }
        k += 1;
    }
    // Match the parameter parens.
    let mut d = 1i32;
    k += 1;
    while k < ts.len() && d > 0 {
        if ts[k].tok.is_punct('(') {
            d += 1;
        } else if ts[k].tok.is_punct(')') {
            d -= 1;
        }
        k += 1;
    }
    // Expect `->`; otherwise no return type.
    if !(ts.get(k).is_some_and(|t| t.tok.is_punct('-'))
        && ts.get(k + 1).is_some_and(|t| t.tok.is_punct('>')))
    {
        return None;
    }
    let ret_start = k + 2;
    let mut e = ret_start;
    while e < ts.len() {
        match &ts[e].tok {
            t if t.is_punct('{') || t.is_punct(';') => break,
            Tok::Ident(n) if n == "where" => break,
            _ => {}
        }
        e += 1;
    }
    Some((ret_start, e, fn_tok))
}

/// True when the return-type tokens contain `Result<…, String>` with
/// `String` in the top-level error position.
fn result_with_string_error(ret: &[Token]) -> bool {
    for i in 0..ret.len() {
        if !(ret[i].tok.is_ident("Result") && ret.get(i + 1).is_some_and(|t| t.tok.is_punct('<'))) {
            continue;
        }
        let mut d = 1i32;
        let mut j = i + 2;
        let mut segments: Vec<Vec<&Tok>> = vec![Vec::new()];
        while j < ret.len() && d > 0 {
            let mut keep: Option<&Tok> = None;
            match &ret[j].tok {
                t if t.is_punct('<') => {
                    d += 1;
                    keep = Some(t);
                }
                t if t.is_punct('>') => {
                    d -= 1;
                    if d > 0 {
                        keep = Some(t);
                    }
                }
                t if t.is_punct(',') && d == 1 => segments.push(Vec::new()),
                t => keep = Some(t),
            }
            if let (Some(t), Some(seg)) = (keep, segments.last_mut()) {
                seg.push(t);
            }
            j += 1;
        }
        if segments.len() >= 2 {
            let err_seg = &segments[segments.len() - 1];
            if err_seg.iter().any(|t| t.is_ident("String")) {
                return true;
            }
        }
    }
    false
}

// --------------------------------------------------------------------- L007

/// Literal-zero indexing (`expr[0]`) in the serving stack: request bodies
/// and batches can be empty, and `x[0]` on an empty Vec is a panic a remote
/// caller can trigger. Use `.first()`/`.get(0)` with an error path.
fn l007_head_indexing(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    for i in 1..ts.len() {
        if file.in_test_code(i) {
            continue;
        }
        let indexable_receiver = matches!(ts[i - 1].tok, Tok::Ident(_))
            || ts[i - 1].tok.is_punct(')')
            || ts[i - 1].tok.is_punct(']');
        let zero_index = match_at(ts, i, &[Pat::P('[')])
            && matches!(&ts.get(i + 1).map(|t| &t.tok), Some(Tok::Num(n)) if n == "0")
            && ts.get(i + 2).is_some_and(|t| t.tok.is_punct(']'));
        if indexable_receiver && zero_index {
            out.push(Diagnostic::new(
                "L007",
                file,
                &ts[i],
                "literal-zero indexing in the serving stack — `expr[0]` panics on empty \
                 input a remote caller controls; use `.first()`/`.get(0)` with an error path"
                    .into(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_lint(id: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(path, src);
        let def = lint_by_id(id).expect("registered lint");
        let mut out = Vec::new();
        match def.pass {
            LintPass::PerFile(run) => run(&f, &mut out),
            LintPass::Workspace(run) => run(&[&f], &mut out),
        }
        out
    }

    #[test]
    fn l004_needs_sync_between_create_and_rename() {
        let bad = "fn save() { let f = File::create(p)?; fs::rename(a, b)?; }";
        let good = "fn save() { let f = File::create(p)?; f.sync_all()?; fs::rename(a, b)?; }";
        let none = "fn save() { fs::rename(a, b)?; }"; // no create in file
        assert_eq!(run_lint("L004", "crates/x/src/s.rs", bad).len(), 1);
        assert!(run_lint("L004", "crates/x/src/s.rs", good).is_empty());
        assert!(run_lint("L004", "crates/x/src/s.rs", none).is_empty());
    }

    #[test]
    fn l006_flags_string_error_position_only() {
        let bad = "pub fn start() -> Result<Server, String> { x }";
        let ok_payload = "pub fn name() -> Result<String, StartError> { x }";
        let boxed = "pub fn f() -> Result<(), Box<dyn std::error::Error>> { x }";
        let closure = "type Job = Box<dyn FnOnce() + Send>;";
        assert_eq!(run_lint("L006", "crates/serve/src/x.rs", bad).len(), 1);
        assert!(run_lint("L006", "crates/serve/src/x.rs", ok_payload).is_empty());
        assert_eq!(run_lint("L006", "crates/serve/src/x.rs", boxed).len(), 1);
        assert!(run_lint("L006", "crates/serve/src/x.rs", closure).is_empty());
    }

    #[test]
    fn l007_flags_head_index_not_array_literal() {
        let src = "fn f(g: &[Job]) { let t = g[0]; let a = [0]; let v = vec![0]; }";
        let d = run_lint("L007", "crates/serve/src/x.rs", src);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn l001_flags_mut_float_slices_outside_kernels() {
        let src = "pub fn axpy(y: &mut [f32], x: &[f32]) {}";
        assert_eq!(run_lint("L001", "crates/gnn/src/x.rs", src).len(), 1);
    }
}
