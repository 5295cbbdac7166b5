//! The analysis engine: walks workspace sources, runs every in-scope lint,
//! resolves `logcl-allow` suppressions, and reports unused allows as
//! violations of the meta lint `L000`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::config;
use crate::lints::{registry, Diagnostic, LintPass};
use crate::source::SourceFile;

/// The result of one analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Surviving diagnostics (allows already applied), sorted by
    /// path, line, column, lint id.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// How many diagnostics inline allows suppressed.
    pub suppressed: usize,
}

/// Errors the engine itself can hit (I/O, bad root).
#[derive(Debug)]
pub enum EngineError {
    /// The given root is not a workspace (no Cargo.toml with [workspace]).
    NotAWorkspace(PathBuf),
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotAWorkspace(p) => {
                write!(f, "{} is not a cargo workspace root", p.display())
            }
            EngineError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for EngineError {}

/// Locates the workspace root: walks up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Analyzes every workspace source file under `root`.
pub fn analyze_root(root: &Path) -> Result<Analysis, EngineError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(EngineError::NotAWorkspace(root.to_path_buf()));
    }
    let mut files: Vec<(String, String)> = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut files)?;
        }
    }
    // Deterministic order regardless of filesystem enumeration.
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(analyze_sources(&files))
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, String)>,
) -> Result<(), EngineError> {
    let entries = fs::read_dir(dir).map_err(|e| EngineError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| EngineError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if config::globally_exempt(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).map_err(|e| EngineError::Io(path.clone(), e))?;
            out.push((rel, text));
        }
    }
    Ok(())
}

/// Analyzes in-memory sources: `(workspace-relative path, contents)` pairs.
/// This is the seam the fixture tests inject violations through.
///
/// Two passes since PR 9: every file is parsed up front, per-file lints run
/// file by file, and workspace lints ([`LintPass::Workspace`]) run once
/// over their whole in-scope slice — the interprocedural lints need the
/// cross-file call graph. Allow resolution stays strictly per file.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut analysis = Analysis::default();
    let parsed: Vec<SourceFile> = files
        .iter()
        .filter(|(path, _)| !config::globally_exempt(path))
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    analysis.files_scanned = parsed.len();

    let mut raw: Vec<Diagnostic> = Vec::new();
    for lint in registry() {
        match lint.pass {
            LintPass::PerFile(run) => {
                for file in &parsed {
                    if lint.scope.contains(&file.path) {
                        run(file, &mut raw);
                    }
                }
            }
            LintPass::Workspace(run) => {
                let in_scope: Vec<&SourceFile> = parsed
                    .iter()
                    .filter(|f| lint.scope.contains(&f.path))
                    .collect();
                if !in_scope.is_empty() {
                    run(&in_scope, &mut raw);
                }
            }
        }
    }

    // Group raw diagnostics by path so allow resolution stays per-file
    // (workspace lints may report against any file in their slice).
    let mut by_path: BTreeMap<&str, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw {
        match parsed.iter().find(|f| f.path == d.path) {
            Some(f) => by_path.entry(f.path.as_str()).or_default().push(d),
            None => analysis.diagnostics.push(d),
        }
    }

    for file in &parsed {
        let raw_for_file = by_path.remove(file.path.as_str()).unwrap_or_default();

        // Resolve allows. A trailing allow covers its own line; a
        // standalone allow covers the next line holding code (stacked
        // standalone allows therefore all cover that same line).
        let mut allow_used = vec![false; file.allows.len()];
        'diag: for d in raw_for_file {
            for (ai, a) in file.allows.iter().enumerate() {
                if a.lint != d.lint {
                    continue;
                }
                let target = if a.standalone {
                    file.next_code_line(a.line)
                } else {
                    Some(a.line)
                };
                if target == Some(d.line) {
                    allow_used[ai] = true;
                    analysis.suppressed += 1;
                    continue 'diag;
                }
            }
            analysis.diagnostics.push(d);
        }

        // Meta lint L000: malformed and unused allows are themselves
        // violations — a stale allow is a hole in the gate.
        for b in &file.bad_allows {
            analysis.diagnostics.push(Diagnostic {
                lint: "L000".into(),
                path: file.path.clone(),
                line: b.line,
                col: 1,
                message: format!("malformed suppression: {}", b.problem),
            });
        }
        for (ai, a) in file.allows.iter().enumerate() {
            if !allow_used[ai] {
                analysis.diagnostics.push(Diagnostic {
                    lint: "L000".into(),
                    path: file.path.clone(),
                    line: a.line,
                    col: 1,
                    message: format!(
                        "unused logcl-allow({}) — the violation it suppressed is gone; \
                         remove the allow so the gate stays tight",
                        a.lint
                    ),
                });
            }
        }
    }
    analysis
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.lint).cmp(&(&b.path, b.line, b.col, &b.lint)));
    analysis
}

/// Renders the L009 lock-acquisition graph of the workspace at `root` as
/// GraphViz DOT (the `analyze graph --dot` command).
pub fn lock_graph_dot_root(root: &Path) -> Result<String, EngineError> {
    if !root.join("Cargo.toml").is_file() {
        return Err(EngineError::NotAWorkspace(root.to_path_buf()));
    }
    let mut files: Vec<(String, String)> = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let parsed: Vec<SourceFile> = files
        .iter()
        .filter(|(path, _)| config::LOCK_SCOPE.contains(path))
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    let refs: Vec<&SourceFile> = parsed.iter().collect();
    Ok(crate::concurrency::lock_graph_dot(&refs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn allows_suppress_and_unused_allows_fire() {
        let files = [src(
            "crates/core/src/x.rs",
            "// logcl-allow(L001): documented seam\nfn f() { a.split_at_mut(1); }\n\
             fn g() { b.chunks_mut(2); } // logcl-allow(L001): also fine\n\
             // logcl-allow(L001): nothing below violates\nfn h() {}\n",
        )];
        let a = analyze_sources(&files);
        assert_eq!(a.suppressed, 2);
        assert_eq!(a.diagnostics.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics[0].lint, "L000");
        assert!(a.diagnostics[0].message.contains("unused"));
    }

    #[test]
    fn allow_for_wrong_lint_does_not_suppress() {
        let files = [src(
            "crates/core/src/x.rs",
            "fn f() { a.split_at_mut(1); } // logcl-allow(L004): wrong id\n",
        )];
        let a = analyze_sources(&files);
        let lints: Vec<&str> = a.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert!(lints.contains(&"L001"), "{lints:?}");
        assert!(lints.contains(&"L000"), "unused wrong-id allow: {lints:?}");
    }

    #[test]
    fn out_of_scope_paths_are_not_linted() {
        let files = [
            src(
                "crates/tensor/src/kernels/x.rs",
                "fn f() { a.split_at_mut(1); }",
            ),
            src(
                "crates/benchmark/src/x.rs",
                "fn f() { std::net::TcpListener::bind(a); }",
            ),
            src("crates/core/tests/x.rs", "fn f() { a.split_at_mut(1); }"),
        ];
        let a = analyze_sources(&files);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn diagnostics_sorted() {
        let files = [src(
            "crates/core/src/x.rs",
            "fn f() { b.split_at_mut(1); a.chunks_mut(2); }\nfn g() { c.as_mut_ptr(); }\n",
        )];
        let a = analyze_sources(&files);
        assert_eq!(a.diagnostics.len(), 3);
        assert!(a.diagnostics.iter().all(|d| d.lint == "L001"));
        assert!(a
            .diagnostics
            .windows(2)
            .all(|w| { (&w[0].path, w[0].line, w[0].col) <= (&w[1].path, w[1].line, w[1].col) }));
    }
}
