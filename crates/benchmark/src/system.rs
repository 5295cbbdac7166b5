//! Booting and tearing down the system under test.
//!
//! Everything runs in this process, started through `Server::start` and
//! `Router::start` with `ServeConfig::default()`, `RouterConfig::default()`
//! and `LogClConfig::default()` as shipped; only `addr`, `wal_dir` and
//! `shard` (and the router's worker list) are set.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use logcl_cluster::{Router, RouterConfig};
use logcl_core::{LogClConfig, ShardSpec};
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::TkgDataset;

use crate::client::Conn;
use crate::prom::Scrape;
use crate::spec::Kind;
use crate::BenchError;

/// Shards behind the router in `sharded_read`.
pub const SHARDS: usize = 2;

/// A directory under the working directory for WAL files, removed on drop.
/// The benchmark may write only inside its checkout, so not the system
/// temp dir.
pub struct Scratch(PathBuf);

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

impl Scratch {
    /// Creates `.bench_tmp/<pid>-<n>/` under the working directory.
    pub fn new() -> Result<Scratch, BenchError> {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last scratch dir.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The model every server and every twin is built from.
pub fn model_config() -> LogClConfig {
    LogClConfig::default()
}

/// The one served model: [`model_config`], untrained, named `default`.
pub fn model_spec() -> ModelSpec {
    ModelSpec {
        name: "default".into(),
        cfg: model_config(),
        checkpoint: None,
        train: None,
    }
}

/// A running system: one server, or a router over [`SHARDS`] shard workers.
pub struct System {
    /// Where clients send their requests.
    pub target: SocketAddr,
    workers: Vec<Server>,
    router: Option<Router>,
    /// Held so the WAL directory outlives the server.
    scratch: Option<Scratch>,
}

impl System {
    /// Boots the system `kind` needs over `ds`.
    pub fn boot(kind: Kind, ds: &TkgDataset) -> Result<System, BenchError> {
        let scratch = match kind {
            Kind::IngestMix => Some(Scratch::new()?),
            _ => None,
        };
        let shards: Vec<Option<ShardSpec>> = match kind {
            Kind::ShardedRead => (0..SHARDS)
                .map(|index| ShardSpec::new(index, SHARDS).map(Some))
                .collect::<Result<_, _>>()?,
            _ => vec![None],
        };
        let mut workers = Vec::with_capacity(shards.len());
        for shard in shards {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                wal_dir: scratch.as_ref().map(|s| s.path().to_path_buf()),
                shard,
                ..ServeConfig::default()
            };
            workers.push(Server::start(cfg, ds.clone(), vec![model_spec()])?);
        }
        let router = match kind {
            Kind::ShardedRead => Some(Router::start(RouterConfig {
                shards: workers.iter().map(|w| vec![w.addr().to_string()]).collect(),
                ..RouterConfig::default()
            })?),
            _ => None,
        };
        Ok(System {
            target: router.as_ref().map_or(workers[0].addr(), Router::addr),
            workers,
            router,
            scratch,
        })
    }

    /// Addresses of the model workers (one, or one per shard).
    pub fn worker_addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(Server::addr).collect()
    }

    /// The WAL file of a durable single-node system.
    pub fn wal_file(&self) -> Option<PathBuf> {
        self.scratch
            .as_ref()
            .map(|s| s.path().join(logcl_serve::registry::WAL_FILE))
    }

    /// `GET /metrics` of every worker, summed series by series.
    pub fn scrape_workers(&self) -> Result<Scrape, BenchError> {
        let mut total = Scrape::default();
        for addr in self.worker_addrs() {
            total = total.plus(&scrape(addr)?);
        }
        Ok(total)
    }

    /// `GET /metrics` of the router; empty without one.
    pub fn scrape_router(&self) -> Result<Scrape, BenchError> {
        match &self.router {
            Some(router) => scrape(router.addr()),
            None => Ok(Scrape::default()),
        }
    }

    /// Stops accepting, drains, and joins every thread of the system.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

fn scrape(addr: SocketAddr) -> Result<Scrape, BenchError> {
    let reply = Conn::new(addr).request("GET", "/metrics", &[("Connection", "close")], b"")?;
    if reply.status != 200 {
        return Err(format!("GET /metrics on {addr} answered {}", reply.status).into());
    }
    Ok(Scrape::parse(&String::from_utf8_lossy(&reply.body)))
}
