//! Router configuration and the worker-topology specification.

use std::time::Duration;

/// A malformed router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The `--shards` list was empty.
    NoShards,
    /// A shard group contained an empty replica address.
    EmptyAddress {
        /// Zero-based shard index of the offending group.
        shard: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoShards => write!(
                f,
                "no worker shards given (want host:port[+replica][,shard2...])"
            ),
            Self::EmptyAddress { shard } => {
                write!(f, "shard {shard} contains an empty worker address")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Parses the `--shards` CLI form into per-shard replica groups: shards are
/// comma-separated, replicas of one shard are `+`-separated, e.g.
/// `"127.0.0.1:7001+127.0.0.1:7004,127.0.0.1:7002,127.0.0.1:7003"` is a
/// three-shard cluster whose first shard has two replicas.
pub fn parse_shards(spec: &str) -> Result<Vec<Vec<String>>, ClusterError> {
    let mut shards = Vec::new();
    for (index, group) in spec.split(',').enumerate() {
        let group = group.trim();
        if group.is_empty() {
            // A trailing comma is tolerated; an interior empty group is not.
            if spec.trim().is_empty() || index + 1 == spec.split(',').count() {
                continue;
            }
            return Err(ClusterError::EmptyAddress { shard: index });
        }
        let mut replicas = Vec::new();
        for addr in group.split('+') {
            let addr = addr.trim();
            if addr.is_empty() {
                return Err(ClusterError::EmptyAddress { shard: index });
            }
            replicas.push(addr.to_string());
        }
        shards.push(replicas);
    }
    if shards.is_empty() {
        return Err(ClusterError::NoShards);
    }
    Ok(shards)
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker topology: `shards[i]` holds the replica addresses of entity
    /// shard `i` (each worker must be serving with `--shard i/N` where `N`
    /// is `shards.len()`).
    pub shards: Vec<Vec<String>>,
    /// Concurrent inbound connections handled (excess answered `503`).
    pub max_connections: usize,
    /// `k` when a predict request does not specify one.
    pub default_k: usize,
    /// Per-request deadline when the client sends no `X-LogCL-Deadline-Ms`.
    pub default_deadline: Duration,
    /// Ceiling clamped onto client-supplied deadlines.
    pub max_deadline: Duration,
    /// Extra attempts per shard after the first fails (each against the
    /// next-preferred replica, with jittered exponential backoff between).
    pub retries: u32,
    /// Backoff base: attempt `n` waits ~`retry_base * 2^n`, jittered.
    pub retry_base: Duration,
    /// Launch a hedged second attempt when a predict scatter has heard
    /// nothing from a shard for this long (`None` disables hedging).
    pub hedge_after: Option<Duration>,
    /// How often the prober re-checks non-Up workers via `GET /healthz`.
    pub probe_interval: Duration,
    /// Outbound TCP connect timeout (also the probe timeout).
    pub connect_timeout: Duration,
    /// Per-connection socket read timeout on the inbound side.
    pub read_timeout: Duration,
    /// Per-request body-size cap in bytes on the inbound side.
    pub max_body_bytes: usize,
    /// Consecutive failures that walk a worker Suspect → Down.
    pub down_after: u32,
    /// Serve `POST /shutdown` (disable when fronted by untrusted traffic).
    pub enable_shutdown_endpoint: bool,
    /// Seed for backoff jitter and minted ingest ids (deterministic tests).
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            max_connections: 128,
            default_k: 10,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(120),
            retries: 2,
            retry_base: Duration::from_millis(20),
            hedge_after: None,
            probe_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
            max_body_bytes: logcl_serve::http::MAX_BODY_BYTES,
            down_after: 3,
            enable_shutdown_endpoint: true,
            seed: 0x5eed_c1a5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shards_and_replicas() {
        let shards = parse_shards("a:1+b:2,c:3").unwrap();
        assert_eq!(
            shards,
            vec![vec!["a:1".to_string(), "b:2".into()], vec!["c:3".into()]]
        );
        // Whitespace and a trailing comma are tolerated.
        let shards = parse_shards(" a:1 , b:2 ,").unwrap();
        assert_eq!(shards.len(), 2);
    }

    #[test]
    fn rejects_empty_specs() {
        assert_eq!(parse_shards(""), Err(ClusterError::NoShards));
        assert_eq!(
            parse_shards("a:1,,b:2"),
            Err(ClusterError::EmptyAddress { shard: 1 })
        );
        assert_eq!(
            parse_shards("a:1++b:2"),
            Err(ClusterError::EmptyAddress { shard: 0 })
        );
        let msg = ClusterError::NoShards.to_string();
        assert!(msg.contains("host:port"), "{msg}");
    }
}
