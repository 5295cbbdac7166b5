//! Interprocedural concurrency analysis: lock hygiene (L005), the
//! lock-order graph (L009), blocking-under-lock (L010), and atomic-ordering
//! discipline (L011).
//!
//! Built on the function-granular index in [`crate::source`]: every `fn`
//! body is walked once with a guard-liveness tracker (straight-line scopes,
//! `drop()`, condvar-consuming reassignment) that knows *which lock* each
//! guard came from and follows direct calls through a per-crate call graph
//! at bounded depth. L005, L009 and L010 all read that one walk.
//!
//! Deliberate conservatisms (documented in DESIGN.md):
//! * Calls resolve only when unambiguous: free calls `name(…)` and
//!   `self.name(…)` method calls resolve to the unique fn of that bare
//!   name within the same crate; path-qualified calls (`Type::f`,
//!   `module::f`) and non-`self` method calls do not resolve. A lint this
//!   deep in CI must under-approximate, never guess.
//! * Guard births are recognized on single-ident `let` bindings and
//!   reassignments, matching the repo's `unwrap_or_else(|e| e.into_inner())`
//!   idiom; chained temporaries (`rx.lock()….recv()`) hold their guard for
//!   one expression and are intentionally out of scope.
//! * Call depth is bounded by [`MAX_CALL_DEPTH`] fn hops.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::lints::Diagnostic;
use crate::source::{FnItem, SourceFile};

/// How many fn hops the interprocedural summaries follow. Depth 1 is the
/// callee's own body; 3 covers every real chain in this workspace while
/// keeping the analysis obviously terminating.
pub const MAX_CALL_DEPTH: usize = 3;

/// Blocking operations flagged *directly* under a live guard by L010.
/// `.lock(` and the [`WAITS`] family are absent here: direct occurrences
/// of those are L005's (with its consuming-wait and through-guard
/// exemptions); L010 adds the I/O-and-sleep family plus the
/// interprocedural view.
const DIRECT_BLOCKING: &[&str] = &[
    "sync_all",
    "sync_data",
    "sleep",
    "read_exact",
    "write_all",
    "flush",
];

/// Channel reads and condvar waits. Directly under a guard they are L005's;
/// in a callee they join [`DIRECT_BLOCKING`] in the *transitive* summary —
/// a callee that parks on any of these stalls the caller's held guard no
/// matter how sanctioned the wait is locally.
const WAITS: &[&str] = &["recv", "recv_timeout", "wait", "wait_timeout", "wait_while"];

/// Idents that look like calls but are control flow or bindings.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "move", "unsafe", "let", "else", "in", "as",
    "fn", "impl", "break", "continue", "where", "drop",
];

// ----------------------------------------------------------------- model

/// One fn in the workspace model.
struct FnRef<'a> {
    file: &'a SourceFile,
    item: &'a FnItem,
}

impl FnRef<'_> {
    /// Stable memo key.
    fn key(&self) -> String {
        format!("{}#{}", self.file.path, self.item.decl)
    }
}

/// The per-workspace (really per-scope-slice) analysis model: the call
/// graph index plus the set of known lock-field names.
pub struct Model<'a> {
    /// crate prefix (`crates/serve`) → bare fn name → candidate fns.
    fns: BTreeMap<String, BTreeMap<String, Vec<FnRef<'a>>>>,
    /// Field/static names declared as `name: Mutex<…>` / `name: RwLock<…>`.
    lock_names: BTreeSet<String>,
}

/// The crate prefix of a workspace-relative path: its first two segments
/// (`crates/serve/src/wal.rs` → `crates/serve`).
fn crate_of(path: &str) -> String {
    path.split('/').take(2).collect::<Vec<_>>().join("/")
}

impl<'a> Model<'a> {
    /// Indexes every non-test fn and every declared lock field.
    pub fn build(files: &[&'a SourceFile]) -> Model<'a> {
        let mut fns: BTreeMap<String, BTreeMap<String, Vec<FnRef<'a>>>> = BTreeMap::new();
        let mut lock_names = BTreeSet::new();
        for file in files {
            let krate = crate_of(&file.path);
            for item in &file.fns {
                if file.in_test_code(item.decl) {
                    continue;
                }
                fns.entry(krate.clone())
                    .or_default()
                    .entry(item.name.clone())
                    .or_default()
                    .push(FnRef { file, item });
            }
            // Lock-field discovery: `name: Mutex<…>` / `name: RwLock<…>`
            // (struct fields, statics, and fn params alike).
            let ts = &file.tokens;
            for i in 0..ts.len() {
                if file.in_test_code(i) {
                    continue;
                }
                let Tok::Ident(name) = &ts[i].tok else {
                    continue;
                };
                // A single `:` (not `::`) after the name — a declaration,
                // not a path segment.
                if !ts.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
                    || ts.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
                {
                    continue;
                }
                let declares_lock = (i + 2..(i + 10).min(ts.len().saturating_sub(1))).any(|j| {
                    (ts[j].tok.is_ident("Mutex") || ts[j].tok.is_ident("RwLock"))
                        && ts[j + 1].tok.is_punct('<')
                });
                if declares_lock {
                    lock_names.insert(name.clone());
                }
            }
        }
        Model { fns, lock_names }
    }

    /// Resolves a bare call name within `krate` — only when exactly one fn
    /// carries that name (ambiguity means no resolution, by design).
    fn resolve(&self, krate: &str, name: &str) -> Option<&FnRef<'a>> {
        match self.fns.get(krate).and_then(|m| m.get(name)) {
            Some(v) if v.len() == 1 => v.first(),
            _ => None,
        }
    }

    /// Whether `item`'s return type names a guard type (`MutexGuard`,
    /// `RwLockReadGuard`, any `…Guard`).
    fn returns_guard(f: &FnRef<'_>) -> bool {
        let (s, e) = f.item.ret;
        f.file.tokens[s..e]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(n) if n.ends_with("Guard")))
    }

    /// The lock a guard-returning fn hands out: its body's first direct
    /// acquisition, falling back to the fn's own name.
    fn guard_fn_lock(&self, f: &FnRef<'_>) -> String {
        direct_acquisitions(self, f)
            .into_iter()
            .next()
            .map(|(lock, _)| lock)
            .unwrap_or_else(|| f.item.name.clone())
    }
}

// ------------------------------------------------- token-level detectors

/// The nearest ident before token `i`, scanning back a few tokens — the
/// receiver name of a method call (`self.shared.state.lock()` → `state`).
fn receiver_ident(ts: &[Token], i: usize) -> Option<String> {
    for k in (i.saturating_sub(1)..i).rev() {
        if let Tok::Ident(n) = &ts[k].tok {
            return Some(n.clone());
        }
    }
    None
}

/// A direct lock acquisition at token `i`: `.lock(` on anything, or
/// `.read(`/`.write(` whose receiver is a known lock name or a fn whose
/// return type names a lock (`cell().read()`). Returns the lock name and
/// the site token (the method ident).
fn direct_acquire_at(model: &Model<'_>, file: &SourceFile, i: usize) -> Option<(String, usize)> {
    let ts = &file.tokens;
    if !ts[i].tok.is_punct('.') {
        return None;
    }
    let (Some(name_t), Some(paren)) = (ts.get(i + 1), ts.get(i + 2)) else {
        return None;
    };
    if !paren.tok.is_punct('(') {
        return None;
    }
    let Tok::Ident(method) = &name_t.tok else {
        return None;
    };
    let krate = crate_of(&file.path);
    match method.as_str() {
        "lock" => {
            let recv = receiver_ident(ts, i).unwrap_or_else(|| "<anon>".into());
            Some((recv, i + 1))
        }
        "read" | "write" => {
            let recv = receiver_ident(ts, i)?;
            let is_lock = model.lock_names.contains(&recv)
                || model.resolve(&krate, &recv).is_some_and(|f| {
                    let (s, e) = f.item.ret;
                    f.file.tokens[s..e]
                        .iter()
                        .any(|t| t.tok.is_ident("RwLock") || t.tok.is_ident("Mutex"))
                });
            is_lock.then(|| (recv, i + 1))
        }
        _ => None,
    }
}

/// A directly-blocking operation at token `i`: `.op(` for the
/// [`DIRECT_BLOCKING`] family, or path-called `::sleep(`.
fn direct_blocking_at(file: &SourceFile, i: usize) -> Option<(&'static str, usize)> {
    let ts = &file.tokens;
    if ts[i].tok.is_punct('.') {
        if let (Some(Tok::Ident(m)), Some(true)) = (
            ts.get(i + 1).map(|t| &t.tok),
            ts.get(i + 2).map(|t| t.tok.is_punct('(')),
        ) {
            if let Some(op) = DIRECT_BLOCKING.iter().find(|&&o| o == m) {
                return Some((op, i + 1));
            }
        }
        return None;
    }
    // `thread::sleep(…)` / `std::thread::sleep(…)`.
    if ts[i].tok.is_ident("sleep")
        && ts.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
        && i > 0
        && ts[i - 1].tok.is_punct(':')
    {
        return Some(("sleep", i));
    }
    None
}

/// A resolvable call at token `i`: a free call `name(…)` (not
/// path-qualified, not a macro, not a definition) or a `self.name(…)`
/// method call. Returns the callee name and the site token index.
fn call_at(ts: &[Token], i: usize) -> Option<(String, usize)> {
    let Tok::Ident(name) = &ts[i].tok else {
        return None;
    };
    if !ts.get(i + 1).is_some_and(|t| t.tok.is_punct('(')) {
        return None;
    }
    if CALL_KEYWORDS.contains(&name.as_str()) {
        return None;
    }
    let prev = i.checked_sub(1).map(|k| &ts[k].tok);
    match prev {
        // `self.name(`: resolvable method call.
        Some(t) if t.is_punct('.') => {
            let self_recv = i >= 2 && ts[i - 2].tok.is_ident("self");
            self_recv.then(|| (name.clone(), i))
        }
        // Path-qualified (`mod::f`, `Type::f`) or a definition — skip.
        Some(t) if t.is_punct(':') || t.is_ident("fn") => None,
        _ => Some((name.clone(), i)),
    }
}

// ----------------------------------------------- interprocedural summaries

/// Every direct lock acquisition in `f`'s body (non-test tokens).
fn direct_acquisitions(model: &Model<'_>, f: &FnRef<'_>) -> Vec<(String, usize)> {
    let (s, e) = f.item.body;
    let mut out = Vec::new();
    for i in s..e.min(f.file.tokens.len()) {
        if f.file.in_test_code(i) {
            continue;
        }
        if let Some(a) = direct_acquire_at(model, f.file, i) {
            out.push(a);
        }
    }
    out
}

/// The set of locks `f` may acquire within `depth` fn hops.
fn transitive_locks(
    model: &Model<'_>,
    f: &FnRef<'_>,
    depth: usize,
    visiting: &mut BTreeSet<String>,
) -> BTreeSet<String> {
    let mut locks = BTreeSet::new();
    if depth == 0 || !visiting.insert(f.key()) {
        return locks;
    }
    locks.extend(direct_acquisitions(model, f).into_iter().map(|(l, _)| l));
    let krate = crate_of(&f.file.path);
    let (s, e) = f.item.body;
    for i in s..e.min(f.file.tokens.len()) {
        if f.file.in_test_code(i) {
            continue;
        }
        if let Some((callee, _)) = call_at(&f.file.tokens, i) {
            if let Some(g) = model.resolve(&krate, &callee) {
                locks.extend(transitive_locks(model, g, depth - 1, visiting));
            }
        }
    }
    visiting.remove(&f.key());
    locks
}

/// The first blocking operation reachable from `f` within `depth` fn hops:
/// `(op, call-chain)` where the chain starts at `f`'s own name.
fn transitive_blocking(
    model: &Model<'_>,
    f: &FnRef<'_>,
    depth: usize,
    visiting: &mut BTreeSet<String>,
) -> Option<(String, String)> {
    if depth == 0 || !visiting.insert(f.key()) {
        return None;
    }
    let ts = &f.file.tokens;
    let (s, e) = f.item.body;
    let mut found = None;
    for i in s..e.min(ts.len()) {
        if f.file.in_test_code(i) {
            continue;
        }
        // Own blocking op (both `.op(` and `::sleep(` forms, plus the
        // transitive-only channel/condvar family in method form).
        let own = if ts[i].tok.is_punct('.') {
            match (ts.get(i + 1).map(|t| &t.tok), ts.get(i + 2)) {
                (Some(Tok::Ident(m)), Some(p)) if p.tok.is_punct('(') => DIRECT_BLOCKING
                    .iter()
                    .chain(WAITS)
                    .find(|&&o| o == m)
                    .copied(),
                _ => None,
            }
        } else {
            direct_blocking_at(f.file, i).map(|(op, _)| op)
        };
        if let Some(op) = own {
            found = Some((op.to_string(), f.item.name.clone()));
            break;
        }
        if let Some((callee, _)) = call_at(ts, i) {
            let krate = crate_of(&f.file.path);
            if let Some(g) = model.resolve(&krate, &callee) {
                if let Some((op, chain)) = transitive_blocking(model, g, depth - 1, visiting) {
                    found = Some((op, format!("{} → {}", f.item.name, chain)));
                    break;
                }
            }
        }
    }
    visiting.remove(&f.key());
    found
}

// -------------------------------------------------- guard-liveness walk

/// One acquisition-order edge: while a guard of `held` was live, `acquired`
/// was (or may be, via `via`) acquired at `site`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock whose guard was live.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
    /// File the site is in.
    pub path: String,
    /// Site position.
    pub line: u32,
    /// Site position.
    pub col: u32,
    /// `None` for a direct acquisition; `Some(callee)` when the edge comes
    /// from a call whose transitive lock set contains `acquired`.
    pub via: Option<String>,
}

/// Everything one fn-body walk finds.
#[derive(Default)]
struct BodyFindings {
    edges: Vec<Edge>,
    /// L005 and L010 violations.
    diagnostics: Vec<Diagnostic>,
    /// All direct acquisitions, guard-held or not — the graph's node set.
    acquired: Vec<String>,
}

/// One guard variable of the body walk.
#[derive(Debug)]
struct Guard {
    var: String,
    lock: String,
    depth: i32,
    live: bool,
    /// Born of an acquisition in this body, not of a guard-returning call:
    /// only these are L005's (intraprocedural) held guards.
    direct: bool,
}

/// L005 at token `k`: `.lock(` or one of the [`WAITS`] while a guard
/// acquired in this body is live. A call made *through* the guard
/// (`guard.recv()`, for `Mutex<Receiver>`) and a condvar wait that consumes
/// it (`cv.wait(guard)`) are the sanctioned patterns and stay silent.
fn lock_hygiene_at(file: &SourceFile, k: usize, live: &[&Guard]) -> Option<Diagnostic> {
    let ts = &file.tokens;
    if !ts[k].tok.is_punct('.') || !ts.get(k + 2).is_some_and(|t| t.tok.is_punct('(')) {
        return None;
    }
    let call = ts.get(k + 1)?.tok.ident()?;
    if call != "lock" && !WAITS.contains(&call) {
        return None;
    }
    let held: Vec<&&Guard> = live.iter().filter(|g| g.direct).collect();
    let is_held = |j: Option<usize>| {
        matches!(j.and_then(|j| ts.get(j)).map(|t| &t.tok),
            Some(Tok::Ident(n)) if held.iter().any(|g| g.var == *n))
    };
    let through_guard = is_held(k.checked_sub(1));
    let consumes_guard = call.starts_with("wait") && is_held(Some(k + 3));
    if held.is_empty() || through_guard || consumes_guard {
        return None;
    }
    let held: Vec<String> = held
        .iter()
        .map(|g| format!("`{}` of lock `{}`", g.var, g.lock))
        .collect();
    Some(Diagnostic::new(
        "L005",
        file,
        &ts[k + 1],
        format!(
            "blocking `.{call}(…)` while guard {} is live — a guard must not span a wait \
             on another primitive (deadlock risk); drop the guard first or wait on the \
             guard itself",
            held.join(", ")
        ),
    ))
}

/// Records events in [from, to) against the guards live right now (minus
/// the binding target, for binding statements).
fn events(
    model: &Model<'_>,
    file: &SourceFile,
    krate: &str,
    (from, to): (usize, usize),
    guards: &[Guard],
    binding_of: Option<&str>,
    out: &mut BodyFindings,
) {
    let ts = &file.tokens;
    let live: Vec<&Guard> = guards
        .iter()
        .filter(|g| g.live && Some(g.var.as_str()) != binding_of)
        .collect();
    for k in from..to {
        if file.in_test_code(k) {
            continue;
        }
        out.diagnostics.extend(lock_hygiene_at(file, k, &live));
        if let Some((lock, site)) = direct_acquire_at(model, file, k) {
            out.acquired.push(lock.clone());
            for g in &live {
                out.edges.push(Edge {
                    held: g.lock.clone(),
                    acquired: lock.clone(),
                    path: file.path.clone(),
                    line: ts[site].line,
                    col: ts[site].col,
                    via: None,
                });
            }
            continue;
        }
        let Some(g) = live.first() else {
            continue;
        };
        let (var, held) = (&g.var, &g.lock);
        if let Some((op, site)) = direct_blocking_at(file, k) {
            out.diagnostics.push(Diagnostic::new(
                "L010",
                file,
                &ts[site],
                format!(
                    "blocking `{op}` while guard `{var}` of lock `{held}` is live — \
                     blocking I/O or sleeps under a lock stall every waiter; drop the \
                     guard first or hoist the blocking work out"
                ),
            ));
            continue;
        }
        if let Some((callee, site)) = call_at(ts, k) {
            if let Some(g_fn) = model.resolve(krate, &callee) {
                let locks = transitive_locks(model, g_fn, MAX_CALL_DEPTH, &mut BTreeSet::new());
                for lock in &locks {
                    for g in &live {
                        out.edges.push(Edge {
                            held: g.lock.clone(),
                            acquired: lock.clone(),
                            path: file.path.clone(),
                            line: ts[site].line,
                            col: ts[site].col,
                            via: Some(callee.clone()),
                        });
                    }
                }
                // A call whose only blocking step is acquiring a lock is
                // L009's business; only report real waits.
                if let Some((op, chain)) =
                    transitive_blocking(model, g_fn, MAX_CALL_DEPTH, &mut BTreeSet::new())
                {
                    out.diagnostics.push(Diagnostic::new(
                        "L010",
                        file,
                        &ts[site],
                        format!(
                            "call reaches blocking `{op}` (path: {chain}) while guard `{var}` \
                             of lock `{held}` is live — drop the guard before the call or \
                             hoist the blocking work out"
                        ),
                    ));
                }
            }
        }
    }
}

/// Walks one fn body tracking guard liveness, recording lock-order edges,
/// lock-hygiene and blocking-under-guard events.
fn scan_body(model: &Model<'_>, f: &FnRef<'_>, out: &mut BodyFindings) {
    let ts = &f.file.tokens;
    let file = f.file;
    let krate = crate_of(&file.path);
    let (body_start, body_end) = f.item.body;
    let body_end = body_end.min(ts.len());
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = body_start;

    let stmt_end = |start: usize| -> usize {
        let mut j = start;
        let mut d = 0i32;
        while j < body_end {
            match &ts[j].tok {
                t if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => d += 1,
                t if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => d -= 1,
                t if t.is_punct(';') && d <= 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        body_end
    };

    // What a binding's RHS acquires: a direct acquisition, or a call to a
    // guard-returning fn — and which of the two it was.
    let rhs_lock = |from: usize, to: usize| -> Option<(String, bool)> {
        for k in from..to {
            if let Some((lock, _)) = direct_acquire_at(model, file, k) {
                return Some((lock, true));
            }
            if let Some((callee, _)) = call_at(ts, k) {
                if let Some(g) = model.resolve(&krate, &callee) {
                    if Model::returns_guard(g) {
                        return Some((model.guard_fn_lock(g), false));
                    }
                }
            }
        }
        None
    };

    while i < body_end {
        if file.in_test_code(i) {
            i += 1;
            continue;
        }
        match &ts[i].tok {
            t if t.is_punct('{') => {
                depth += 1;
                i += 1;
                continue;
            }
            t if t.is_punct('}') => {
                depth -= 1;
                for g in &mut guards {
                    if g.live && depth < g.depth {
                        g.live = false;
                    }
                }
                i += 1;
                continue;
            }
            _ => {}
        }

        // `drop(name)` kills a guard.
        let is_drop = ts[i].tok.is_ident("drop")
            && ts.get(i + 1).is_some_and(|t| t.tok.is_punct('('))
            && matches!(ts.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(_)))
            && ts.get(i + 3).is_some_and(|t| t.tok.is_punct(')'));
        if is_drop {
            if let Tok::Ident(name) = &ts[i + 2].tok {
                for g in &mut guards {
                    if g.live && g.var == *name {
                        g.live = false;
                    }
                }
            }
            i += 4;
            continue;
        }

        // Guard-relevant bindings: `let [mut] NAME = …;` or `NAME = …;`
        // reassignment of a known guard variable.
        let binding = if ts[i].tok.is_ident("let") {
            let mut j = i + 1;
            if ts.get(j).is_some_and(|t| t.tok.is_ident("mut")) {
                j += 1;
            }
            match (ts.get(j).map(|t| &t.tok), ts.get(j + 1).map(|t| &t.tok)) {
                (Some(Tok::Ident(name)), Some(t))
                    if t.is_punct('=') && !ts.get(j + 2).is_some_and(|n| n.tok.is_punct('=')) =>
                {
                    Some((name.clone(), i))
                }
                _ => None,
            }
        } else if let Tok::Ident(name) = &ts[i].tok {
            let reassign = ts.get(i + 1).is_some_and(|t| t.tok.is_punct('='))
                && !ts.get(i + 2).is_some_and(|t| t.tok.is_punct('='))
                && guards.iter().any(|g| g.var == *name);
            if reassign {
                Some((name.clone(), i))
            } else {
                None
            }
        } else {
            None
        };

        if let Some((name, start)) = binding {
            let end = stmt_end(start);
            events(model, file, &krate, (start, end), &guards, Some(&name), out);
            if let Some((lock, direct)) = rhs_lock(start, end) {
                if let Some(g) = guards.iter_mut().find(|g| g.var == name) {
                    g.live = true; // revive at its original depth
                    g.lock = lock;
                    g.direct = direct;
                } else {
                    guards.push(Guard {
                        var: name,
                        lock,
                        depth,
                        live: true,
                        direct,
                    });
                }
            }
            // A consuming condvar reassignment (`st = cv.wait(st)…`) keeps
            // the guard live; any other RHS leaves its state unchanged.
            for t in &ts[start..end] {
                if t.tok.is_punct('{') {
                    depth += 1;
                } else if t.tok.is_punct('}') {
                    depth -= 1;
                }
            }
            i = end;
            continue;
        }

        events(model, file, &krate, (i, i + 1), &guards, None, out);
        i += 1;
    }
}

// --------------------------------------------------------------- the lints

/// Walks every outermost non-test fn of every in-scope file. A nested fn
/// is walked as part of the body around it, so it is reported once.
fn scan_all(files: &[&SourceFile]) -> BodyFindings {
    let model = Model::build(files);
    let mut out = BodyFindings::default();
    for file in files {
        for item in &file.fns {
            let nested = file
                .fns
                .iter()
                .any(|o| o.body.0 < item.decl && item.decl < o.body.1);
            if !nested && !file.in_test_code(item.decl) {
                scan_body(&model, &FnRef { file, item }, &mut out);
            }
        }
    }
    out
}

/// L005 lock-hygiene: while a guard acquired in the fn is live, no `.lock(`
/// and no channel read or condvar wait on anything but that guard.
pub fn l005_lock_hygiene(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    out.extend(
        scan_all(files)
            .diagnostics
            .into_iter()
            .filter(|d| d.lint == "L005"),
    );
}

/// L009 lock-order: build the cross-file lock-acquisition graph and report
/// every edge that participates in a cycle (including self-edges — a
/// re-acquired non-reentrant `Mutex` is a self-deadlock).
pub fn l009_lock_order(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    let edges = scan_all(files).edges;
    let adj = adjacency(&edges);
    let mut seen = BTreeSet::new();
    for e in &edges {
        if !reaches(&adj, &e.acquired, &e.held) {
            continue;
        }
        if !seen.insert((
            e.held.clone(),
            e.acquired.clone(),
            e.line,
            e.col,
            e.path.clone(),
        )) {
            continue;
        }
        let via = match &e.via {
            Some(callee) => format!(" (via call to `{callee}`)"),
            None => String::new(),
        };
        let message = if e.held == e.acquired {
            format!(
                "lock-order cycle: re-acquiring `{}`{via} while already holding it — \
                 a non-reentrant Mutex self-deadlocks; drop the guard first",
                e.held
            )
        } else {
            format!(
                "lock-order cycle: acquiring `{}` while holding `{}`{via}, and another \
                 path acquires them in the opposite order — two threads interleaving \
                 those paths deadlock; acquire locks in one global order",
                e.acquired, e.held
            )
        };
        // Synthesize the diagnostic from the edge site directly: the edge
        // already carries exact position.
        out.push(Diagnostic {
            lint: "L009".into(),
            path: e.path.clone(),
            line: e.line,
            col: e.col,
            message,
        });
    }
}

/// L010 blocking-under-lock: `sync_all`/`sleep`/socket-write family (and,
/// interprocedurally, channel reads and condvar waits) reachable while a
/// guard is live.
pub fn l010_blocking_under_lock(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    out.extend(
        scan_all(files)
            .diagnostics
            .into_iter()
            .filter(|d| d.lint == "L010"),
    );
}

/// L011 atomic-ordering: `Ordering::Relaxed` outside the telemetry plane.
/// The one structural exemption: statements mentioning `metrics` — counter
/// updates on the `Metrics` struct are monotonic telemetry whose staleness
/// is harmless by design (DESIGN.md). Everything else needs a written
/// `logcl-allow(L011)` justification or a stronger ordering.
pub fn l011_atomic_ordering(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let ts = &file.tokens;
    for i in 0..ts.len() {
        if file.in_test_code(i) || file.in_use_statement(i) {
            continue;
        }
        let relaxed = ts[i].tok.is_ident("Ordering")
            && ts.get(i + 1).is_some_and(|t| t.tok.is_punct(':'))
            && ts.get(i + 2).is_some_and(|t| t.tok.is_punct(':'))
            && ts.get(i + 3).is_some_and(|t| t.tok.is_ident("Relaxed"));
        if !relaxed {
            continue;
        }
        // Statement span: back to the nearest `;`/`{`/`}`, forward to the
        // nearest `;` (bounded). Good enough to spot a `metrics` mention.
        let back = (0..i)
            .rev()
            .take(48)
            .find(|&k| {
                ts[k].tok.is_punct(';') || ts[k].tok.is_punct('{') || ts[k].tok.is_punct('}')
            })
            .map(|k| k + 1)
            .unwrap_or_else(|| i.saturating_sub(48));
        let fwd = (i..ts.len())
            .take(48)
            .find(|&k| ts[k].tok.is_punct(';'))
            .unwrap_or((i + 48).min(ts.len() - 1));
        let telemetry = ts[back..=fwd].iter().any(|t| t.tok.is_ident("metrics"));
        if telemetry {
            continue;
        }
        out.push(Diagnostic::new(
            "L011",
            file,
            &ts[i + 3],
            "`Ordering::Relaxed` on an atomic outside the telemetry plane — cross-thread \
             signalling needs Acquire/Release (or stronger) to order the data it publishes; \
             if this site is genuinely order-free, justify it with `// logcl-allow(L011): why`"
                .into(),
        ));
    }
}

// ------------------------------------------------------------------ graph

fn adjacency(edges: &[Edge]) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str())
            .or_default()
            .insert(e.acquired.as_str());
    }
    adj
}

/// Whether `to` is reachable from `from` over the edge set (trivially true
/// when `from == to` *and* a self-edge or cycle brings it back).
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Renders the lock-acquisition graph as GraphViz DOT. Cycle-participating
/// edges are highlighted; every edge carries its site as a label.
pub fn lock_graph_dot(files: &[&SourceFile]) -> String {
    let BodyFindings {
        edges, acquired, ..
    } = scan_all(files);
    let adj = adjacency(&edges);
    let mut all_nodes: BTreeSet<&str> = acquired.iter().map(String::as_str).collect();
    for e in &edges {
        all_nodes.insert(&e.held);
        all_nodes.insert(&e.acquired);
    }
    let mut uniq: BTreeSet<(String, String, String)> = BTreeSet::new();
    for e in &edges {
        let file = e.path.rsplit('/').next().unwrap_or(&e.path);
        let label = match &e.via {
            Some(callee) => format!("{}:{} via {}", file, e.line, callee),
            None => format!("{}:{}", file, e.line),
        };
        uniq.insert((e.held.clone(), e.acquired.clone(), label));
    }
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
    for n in &all_nodes {
        out.push_str(&format!("  \"{n}\";\n"));
    }
    for (held, acquired, label) in &uniq {
        let in_cycle = reaches(&adj, acquired.as_str(), held.as_str());
        let attrs = if in_cycle {
            format!("label=\"{label}\", color=red, penwidth=2")
        } else {
            format!("label=\"{label}\"")
        };
        out.push_str(&format!("  \"{held}\" -> \"{acquired}\" [{attrs}];\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    fn run_ws(
        lint: fn(&[&SourceFile], &mut Vec<Diagnostic>),
        files: &[&SourceFile],
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lint(files, &mut out);
        out
    }

    #[test]
    fn call_graph_resolves_unique_names_within_a_crate() {
        let a = parse(
            "crates/serve/src/a.rs",
            "fn caller() { helper(); }\nfn local() {}\n",
        );
        let b = parse(
            "crates/serve/src/b.rs",
            "pub fn helper() { std::thread::sleep(d); }\n",
        );
        let other = parse(
            "crates/tensor/src/kernels/c.rs",
            "pub fn helper() {}\n", // same name, different crate: no clash
        );
        let files = [&a, &b, &other];
        let model = Model::build(&files);
        assert!(model.resolve("crates/serve", "helper").is_some());
        assert!(model.resolve("crates/serve", "missing").is_none());
        let resolved = model.resolve("crates/serve", "helper").unwrap();
        assert_eq!(resolved.file.path, "crates/serve/src/b.rs");
        // Cross-file blocking summary flows through the resolution.
        let blocked = transitive_blocking(&model, resolved, MAX_CALL_DEPTH, &mut BTreeSet::new());
        assert_eq!(blocked, Some(("sleep".into(), "helper".into())));
    }

    #[test]
    fn ambiguous_names_do_not_resolve() {
        let a = parse("crates/serve/src/a.rs", "fn helper() {}\n");
        let b = parse("crates/serve/src/b.rs", "fn helper() {}\n");
        let model = Model::build(&[&a, &b]);
        assert!(model.resolve("crates/serve", "helper").is_none());
    }

    #[test]
    fn l005_flags_second_lock_and_waits_but_not_condvar_or_through_guard() {
        let l005 = |src: &str| run_ws(l005_lock_hygiene, &[&parse("crates/serve/src/x.rs", src)]);
        let bad = "fn f() { let st = a.lock().unwrap(); let other = b.lock().unwrap(); }";
        let recv = "fn f() { let st = a.lock().unwrap();\n let j = rx.recv(); }";
        let cv =
            "fn f() { let mut st = a.lock().unwrap(); while x { st = cv.wait(st).unwrap(); } }";
        let through = "fn f() { let g = rx.lock().unwrap(); let j = g.recv(); }";
        let dropped = "fn f() { let st = a.lock().unwrap(); drop(st); let o = b.lock().unwrap(); }";
        assert_eq!(l005(bad).len(), 1);
        let d = l005(recv);
        assert_eq!((d.len(), d[0].line, d[0].col), (1, 2, 13), "{d:?}");
        assert!(l005(cv).is_empty());
        assert!(l005(through).is_empty());
        assert!(l005(dropped).is_empty());
        // A nested fn is walked once, as part of the body around it.
        let nested = "fn f() { fn g() { let a = m.lock(); let b = n.lock(); } }";
        assert_eq!(l005(nested).len(), 1);
    }

    #[test]
    fn guard_liveness_drop_and_scope_exit() {
        // After drop(g) and after the inner scope closes, no guard is live,
        // so the sleeps are clean; the one under the live guard fires.
        let f = parse(
            "crates/serve/src/x.rs",
            "fn f(m: &std::sync::Mutex<u8>) {\n\
               let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
               std::thread::sleep(d);\n\
               drop(g);\n\
               std::thread::sleep(d);\n\
               { let h = m.lock().unwrap_or_else(|e| e.into_inner()); touch(&h); }\n\
               std::thread::sleep(d);\n\
             }\n",
        );
        let d = run_ws(l010_blocking_under_lock, &[&f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn guard_returning_fn_births_a_guard_interprocedurally() {
        let src = "\
struct P { state: std::sync::Mutex<u8> }
fn lock_state(p: &P) -> std::sync::MutexGuard<'_, u8> {
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}
fn f(p: &P) {
    let st = lock_state(p);
    std::thread::sleep(d);
}
";
        let f = parse("crates/serve/src/x.rs", src);
        let d = run_ws(l010_blocking_under_lock, &[&f]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`state`"), "{}", d[0].message);
    }

    #[test]
    fn l010_respects_the_call_depth_bound() {
        let within = "\
fn f(m: &std::sync::Mutex<u8>) { let g = m.lock().unwrap_or_else(|e| e.into_inner()); a(); }
fn a() { b(); }
fn b() { c(); }
fn c() { x.sync_all(); }
";
        let beyond = "\
fn f(m: &std::sync::Mutex<u8>) { let g = m.lock().unwrap_or_else(|e| e.into_inner()); a(); }
fn a() { b(); }
fn b() { c(); }
fn c() { d(); }
fn d() { x.sync_all(); }
";
        // a → b → c is 3 hops: found. a → b → c → d is 4: out of budget.
        let f1 = parse("crates/serve/src/x.rs", within);
        assert_eq!(run_ws(l010_blocking_under_lock, &[&f1]).len(), 1);
        let f2 = parse("crates/serve/src/x.rs", beyond);
        assert!(run_ws(l010_blocking_under_lock, &[&f2]).is_empty());
    }

    #[test]
    fn l009_reports_cycles_but_not_one_way_orders() {
        let forward = parse(
            "crates/serve/src/fwd.rs",
            "struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }\n\
             impl S { fn fwd(&self) {\n\
               let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
               let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());\n\
             } }\n",
        );
        assert!(
            run_ws(l009_lock_order, &[&forward]).is_empty(),
            "a→b alone is a valid global order"
        );
        let backward = parse(
            "crates/serve/src/bwd.rs",
            "impl T { fn bwd(&self) {\n\
               let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());\n\
               let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
             } }\n",
        );
        let d = run_ws(l009_lock_order, &[&forward, &backward]);
        assert_eq!(d.len(), 2, "both edges of the a/b cycle fire: {d:?}");
        assert!(d.iter().any(|d| d.path.ends_with("fwd.rs")));
        assert!(d.iter().any(|d| d.path.ends_with("bwd.rs")));
    }

    #[test]
    fn l009_cross_file_cycle_through_a_call() {
        let lib = parse(
            "crates/serve/src/lib_part.rs",
            "struct S { a: std::sync::Mutex<u8>, b: std::sync::Mutex<u8> }\n\
             fn take_b_then_a(s: &S) {\n\
               let gb = s.b.lock().unwrap_or_else(|e| e.into_inner());\n\
               let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());\n\
             }\n",
        );
        let caller = parse(
            "crates/serve/src/caller.rs",
            "fn entry(s: &S) {\n\
               let ga = s.a.lock().unwrap_or_else(|e| e.into_inner());\n\
               take_b_then_a(s);\n\
             }\n",
        );
        let d = run_ws(l009_lock_order, &[&lib, &caller]);
        assert!(!d.is_empty(), "interprocedural a→b vs b→a cycle");
        assert!(
            d.iter()
                .any(|d| d.message.contains("via call to `take_b_then_a`")),
            "{d:?}"
        );
    }

    #[test]
    fn l011_flags_relaxed_but_exempts_metrics_and_tests() {
        let src = "\
fn f(flag: &AtomicBool, metrics: &M) {
    flag.store(true, Ordering::Relaxed);
    metrics.predict_total.fetch_add(1, Ordering::Relaxed);
}
#[cfg(test)]
mod tests { fn t(f: &AtomicBool) { f.store(true, Ordering::Relaxed); } }
";
        let f = parse("crates/serve/src/x.rs", src);
        let mut out = Vec::new();
        l011_atomic_ordering(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn dot_output_lists_nodes_and_highlights_cycle_edges() {
        let f = parse(
            "crates/serve/src/x.rs",
            "impl S { fn fwd(&self) {\n\
               let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
               let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());\n\
             }\n\
             fn bwd(&self) {\n\
               let gb = self.b.lock().unwrap_or_else(|e| e.into_inner());\n\
               let ga = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
             } }\n",
        );
        let dot = lock_graph_dot(&[&f]);
        assert!(dot.starts_with("digraph lock_order {"), "{dot}");
        assert!(dot.contains("\"a\" -> \"b\""), "{dot}");
        assert!(dot.contains("\"b\" -> \"a\""), "{dot}");
        assert!(dot.contains("color=red"), "cycle edges highlighted: {dot}");
    }
}
