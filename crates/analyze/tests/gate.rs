//! End-to-end gate test: runs the real `logcl-analyze` binary against a
//! synthetic workspace with an injected violation — exactly what the CI
//! `analyze` job would see: a violation exits 1 with its `file:line:col`, a
//! justified `logcl-allow` exits 0, and an allow left behind by a fix
//! exits 1 as L000.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ws(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/core/src")).expect("mkdir workspace");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    root
}

fn check(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_logcl-analyze"))
        .arg("check")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn logcl-analyze")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const ONE_VIOLATION: &str =
    "pub fn f(x: &mut Vec<f32>) -> usize {\n    x.split_at_mut(1).0.len()\n}\n";

#[test]
fn injected_violation_fails_the_gate_with_position() {
    let root = ws("gate_position");
    let lib = root.join("crates/core/src/lib.rs");
    fs::write(&lib, ONE_VIOLATION).expect("write lib");

    let out = check(&root, &[]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "gate must fail: {}",
        stdout(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("crates/core/src/lib.rs:2:7 L001"),
        "diagnostic must carry file:line:col of the split: {text}"
    );
}

#[test]
fn json_output_reports_the_injected_violation() {
    let root = ws("gate_json");
    fs::write(root.join("crates/core/src/lib.rs"), ONE_VIOLATION).expect("write lib");

    let out = check(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("\"ok\":false"), "{text}");
    assert!(
        text.contains("\"lint\":\"L001\"")
            && text.contains("\"line\":2")
            && text.contains("\"col\":7"),
        "{text}"
    );

    // The payload is versioned and self-describing: consumers of the CI
    // artifact can tell "clean because checked" from "clean because the
    // lint didn't exist in that build of the analyzer".
    assert!(text.contains("\"schema_version\":2"), "{text}");
    let mut lints = vec!["\"L000\"".to_string()];
    lints.extend(
        logcl_analyze::lints::registry()
            .iter()
            .map(|l| format!("\"{}\"", l.id)),
    );
    let want = format!("\"lints\":[{}]", lints.join(","));
    assert!(text.contains(&want), "want {want} in: {text}");
}

#[test]
fn suppressed_violation_passes_but_unused_allow_fails() {
    let root = ws("gate_allows");
    let lib = root.join("crates/core/src/lib.rs");

    fs::write(
        &lib,
        "pub fn f(x: &mut Vec<f32>) -> usize {\n    // logcl-allow(L001): gate test — hands the buffer on\n    x.split_at_mut(1).0.len()\n}\n",
    )
    .expect("write lib");
    let out = check(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("1 suppressed"), "{}", stdout(&out));

    // Remove the violation but keep the allow: the stale allow itself
    // becomes an L000 violation, so suppressions cannot rot.
    fs::write(
        &lib,
        "pub fn f(x: &mut Vec<f32>) -> usize {\n    // logcl-allow(L001): gate test — hands the buffer on\n    x.len()\n}\n",
    )
    .expect("write lib");
    let out = check(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("L000"), "{}", stdout(&out));
    assert!(stdout(&out).contains("unused"), "{}", stdout(&out));
}

#[test]
fn a_second_http_client_fails_the_gate_everywhere_but_the_wire_module() {
    const HAND_ROLLED: &str = "pub fn ping(addr: &str) -> bool {\n    \
        std::net::TcpStream::connect(addr).is_ok_and(|mut s| {\n        \
        std::io::Write::write_all(&mut s, b\"GET / HTTP/1.1\\r\\n\\r\\n\").is_ok()\n    })\n}\n";
    let root = ws("gate_wire_boundary");
    fs::create_dir_all(root.join("crates/loadgen/src")).expect("mkdir loadgen");
    fs::create_dir_all(root.join("crates/serve/src")).expect("mkdir serve");

    // In any product crate — linted by nothing else or by everything — the
    // connect and the version literal are each an L012 violation…
    fs::write(root.join("crates/loadgen/src/probe.rs"), HAND_ROLLED).expect("write probe");
    let out = check(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("crates/loadgen/src/probe.rs:2:15 L012"),
        "{text}"
    );
    assert!(
        text.contains("crates/loadgen/src/probe.rs:3:43 L012"),
        "{text}"
    );

    // …and the same bytes are fine in the one file that is the boundary.
    fs::remove_file(root.join("crates/loadgen/src/probe.rs")).expect("rm probe");
    fs::write(root.join("crates/serve/src/http.rs"), HAND_ROLLED).expect("write http");
    let out = check(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn a_second_listener_fails_the_gate_everywhere_but_the_listener_module() {
    const HAND_ROLLED: &str = "pub fn serve(addr: &str) -> std::io::Result<()> {\n    \
        let listener = std::net::TcpListener::bind(addr)?;\n    \
        listener.accept().map(drop)\n}\n";
    let root = ws("gate_listener_boundary");
    fs::create_dir_all(root.join("crates/cluster/src")).expect("mkdir cluster");
    fs::create_dir_all(root.join("crates/serve/src")).expect("mkdir serve");

    // A bind in the router — or in the wire module, which is the boundary
    // of the *other* half — is an accept loop of its own…
    for path in ["crates/cluster/src/admin.rs", "crates/serve/src/http.rs"] {
        fs::write(root.join(path), HAND_ROLLED).expect("write listener");
        let out = check(&root, &[]);
        assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
        let text = stdout(&out);
        assert!(text.contains(&format!("{path}:2:30 L012")), "{text}");
        fs::remove_file(root.join(path)).expect("rm listener");
    }

    // …and the same bytes are fine in the one file that is the loop.
    fs::write(root.join("crates/serve/src/listener.rs"), HAND_ROLLED).expect("write listener");
    let out = check(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn the_committed_workspace_passes_its_own_gate() {
    // The real repo (two directories up from this crate) must be clean —
    // the same invariant CI enforces.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    if !repo_root.join("crates/analyze/Cargo.toml").is_file() {
        return; // packaged build without the repo checkout; nothing to gate
    }
    let out = check(&repo_root, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the tree no longer passes its own lint gate:\n{}",
        stdout(&out)
    );
}
