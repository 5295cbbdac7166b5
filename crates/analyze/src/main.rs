//! CLI for the invariant lint engine.
//!
//! ```text
//! cargo run -p logcl-analyze -- check                 # human output, exit 1 on violations
//! cargo run -p logcl-analyze -- check --json          # machine output (schema_version'd)
//! cargo run -p logcl-analyze -- lints                 # list registered lints
//! cargo run -p logcl-analyze -- graph --dot           # L009 lock-order graph as DOT
//! ```

// Panic-freedom (DESIGN.md, "Lint table"): non-test code calls no
// unwrap/expect/panic-family macro. A justified site carries
// `#[expect(…, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(clippy::allow_attributes_without_reason)]

use std::path::PathBuf;
use std::process::ExitCode;

use logcl_analyze::engine::{analyze_root, find_workspace_root, lock_graph_dot_root};
use logcl_analyze::lints::{lint_rows, registry};

struct Options {
    command: Command,
    json: bool,
    root: Option<PathBuf>,
}

enum Command {
    Check,
    Lints,
    Graph,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.command {
        Command::Lints => {
            print_lints();
            ExitCode::SUCCESS
        }
        Command::Check => run_check(&opts),
        Command::Graph => run_graph(&opts),
    }
}

const USAGE: &str = "usage: logcl-analyze <check|lints|graph> [--json] [--dot] [--root DIR]";

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = match args.next().as_deref() {
        Some("check") => Command::Check,
        Some("lints") => Command::Lints,
        Some("graph") => Command::Graph,
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".into()),
    };
    let mut opts = Options {
        command,
        json: false,
        root: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            // `graph` always emits DOT; the flag is accepted for
            // self-documenting invocations (`analyze graph --dot`).
            "--dot" => {}
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ))
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Generated from the registry (plus the L000 meta lint) so a newly
/// registered lint shows up here without anyone remembering to edit this.
fn print_lints() {
    for (id, name, invariant, origin) in lint_rows() {
        println!(
            "{id}  {name:<20} {}",
            invariant.split_whitespace().collect::<Vec<_>>().join(" ")
        );
        println!("      origin: {origin}");
    }
}

fn run_graph(opts: &Options) -> ExitCode {
    let root = match resolve_root(&opts.root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    match lock_graph_dot_root(&root) {
        Ok(dot) => {
            print!("{dot}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("graph failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn resolve_root(opt: &Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    match opt {
        Some(r) => Ok(r.clone()),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot determine working directory: {e}");
                    return Err(ExitCode::from(2));
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => Ok(r),
                None => {
                    eprintln!("no cargo workspace found above {}", cwd.display());
                    Err(ExitCode::from(2))
                }
            }
        }
    }
}

fn run_check(opts: &Options) -> ExitCode {
    let root = match resolve_root(&opts.root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let analysis = match analyze_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", render_json(&analysis));
    } else {
        render_human(&analysis);
    }
    if analysis.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_human(analysis: &logcl_analyze::Analysis) {
    for d in &analysis.diagnostics {
        println!("{}:{}:{} {} {}", d.path, d.line, d.col, d.lint, d.message);
    }
    println!(
        "logcl-analyze: {} files scanned, {} violation(s), {} suppressed by logcl-allow",
        analysis.files_scanned,
        analysis.diagnostics.len(),
        analysis.suppressed,
    );
    if analysis.diagnostics.is_empty() {
        println!("logcl-analyze: OK");
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(analysis: &logcl_analyze::Analysis) -> String {
    let violations: Vec<String> = analysis
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "{{\"lint\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                json_escape(&d.lint),
                json_escape(&d.path),
                d.line,
                d.col,
                json_escape(&d.message)
            )
        })
        .collect();
    // The lints this build of the analyzer can emit (registry + meta lint):
    // consumers of the CI artifact use this to tell "clean because checked"
    // from "clean because the lint didn't exist yet".
    let mut lints: Vec<String> = vec!["\"L000\"".into()];
    lints.extend(registry().iter().map(|l| format!("\"{}\"", l.id)));
    format!(
        "{{\"schema_version\":2,\"lints\":[{}],\"ok\":{},\"files_scanned\":{},\
         \"suppressed\":{},\"violations\":[{}]}}",
        lints.join(","),
        analysis.diagnostics.is_empty(),
        analysis.files_scanned,
        analysis.suppressed,
        violations.join(",")
    )
}
