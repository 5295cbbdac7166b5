//! Fixtures the cluster test binaries share: one tiny dataset and untrained
//! model for the workers, and one request per connection over
//! `http::Client`. Worker and router configs stay in their files.

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
use logcl_tkg::{SyntheticPreset, TkgDataset};
use serde_json::Value;

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
    let dir = std::env::temp_dir().join(format!("logcl-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

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
/// config seed, so every worker booted from it holds bit-identical
/// parameters.
pub fn untrained_spec() -> ModelSpec {
    ModelSpec {
        name: "default".into(),
        cfg: tiny_cfg(),
        checkpoint: None,
        train: None,
    }
}

/// One request on its own connection.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body, &[]);
    (status, body)
}

/// One request on its own connection; any status is an answer here (it is
/// the router's hop client that maps 5xx to retryable errors).
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
    assert_eq!(status, 200);
    json(&body).get("horizon").and_then(Value::as_u64).unwrap()
}
