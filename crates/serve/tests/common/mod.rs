//! Fixtures the serve test binaries share: one tiny dataset and untrained
//! model, one request per connection over `http::Client`, and readers for
//! what `/healthz` and `/predict` answer. Per-binary `ServeConfig`s stay in
//! their files.

#![allow(
    dead_code,
    reason = "every test binary compiles this module and each uses only part of it"
)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use logcl_core::LogClConfig;
use logcl_serve::http::Client;
use logcl_serve::ModelSpec;
use logcl_tkg::{Quad, SyntheticPreset, TkgDataset};
use serde_json::Value;

pub fn tiny_ds() -> TkgDataset {
    SyntheticPreset::Icews14.generate_scaled(0.15)
}

pub fn tiny_cfg() -> LogClConfig {
    LogClConfig {
        dim: 16,
        time_bank: 4,
        channels: 6,
        m: 3,
        ..Default::default()
    }
}

/// An untrained model spec: `LogCl::new` init is deterministic in the
/// config seed, so every server booted from it, and a locally built
/// `LogCl::new(&ds, tiny_cfg())`, hold bit-identical parameters.
pub fn untrained_spec() -> ModelSpec {
    ModelSpec {
        name: "default".into(),
        cfg: tiny_cfg(),
        checkpoint: None,
        train: None,
    }
}

/// A fresh per-test scratch directory under the temp dir, unique per process
/// so parallel test binaries never collide. Derefs to its `Path`; dropping
/// it — when the test ends, pass or fail — removes the directory.
pub struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("logcl-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

/// Copies every regular file in `src` into a fresh `dst` — the crash image.
pub fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read wal dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
        }
    }
}

/// One request on its own connection.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body, &[]);
    (status, body)
}

/// Like [`request`] but sends extra request headers and returns the
/// response headers alongside status and body.
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> (u16, Vec<(String, String)>, String) {
    let reply = Client::new(addr, Duration::from_secs(120))
        .and_then(|mut client| client.send(method, path, extra_headers, body.as_bytes()))
        .expect("exchange");
    let body = reply.text();
    (reply.status, reply.headers, body)
}

/// The value of `name` (case-insensitive) among parsed response headers.
pub fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

pub fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// The horizon `/healthz` reports; `/healthz` must answer 200.
pub fn horizon_of(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz must always be live: {body}");
    json(&body).get("horizon").and_then(Value::as_u64).unwrap()
}

/// `(entity, probability)` pairs out of a `/predict` response body.
pub fn predictions_of(body: &Value) -> Vec<(u64, f32)> {
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| {
            (
                p.get("entity").and_then(Value::as_u64).expect("entity id"),
                p.get("probability")
                    .and_then(Value::as_f64)
                    .expect("probability") as f32,
            )
        })
        .collect()
}

/// What `/ingest` does to the registry's dataset, done to a twin's: the
/// facts not already present at `t` join the test split and the horizon
/// covers `t`. Returns the facts that were new.
pub fn extend(ds: &mut TkgDataset, t: usize, facts: &[(usize, usize, usize)]) -> Vec<Quad> {
    let fresh: Vec<Quad> = facts
        .iter()
        .filter(|f| !ds.all_quads().iter().any(|q| q.t == t && q.triple() == **f))
        .map(|&(s, r, o)| Quad::new(s, r, o, t))
        .collect();
    ds.test.extend_from_slice(&fresh);
    ds.num_times = ds.num_times.max(t + 1);
    fresh
}
