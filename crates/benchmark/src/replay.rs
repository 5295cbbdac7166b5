//! The traced replay: where a `/predict` spends its time.
//!
//! The first requests of the r2 schedule are replayed one at a time:
//!
//! 1. over a socket against the live system — the unloaded one-client
//!    service time the layers have to add up to;
//! 2. in process, through the same public calls the server makes
//!    (`http::read_request` → `Registry` as `BatchHandler` →
//!    `http::write_response`) on a twin registry, each call in a span;
//! 3. stage by stage on a twin model (`validate_query`, `query_subgraph`,
//!    `forward_queries`, `forward_queries_local_only`, `topk_from_scores`,
//!    …), then the `gnn` and kernel calls at the workload's shape.
//!
//! Pass 3 runs every query a second time with spans off; the difference is
//! the tracing overhead. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use logcl_cluster::{merge_replies, parse_shard_reply};
use logcl_core::{
    online_adapt, shard_topk, topk_from_scores, validate_query, EvalContext, OnlineAdaptOptions,
    ShardSpec,
};
use logcl_gnn::aggregator::EdgeBatch;
use logcl_gnn::{AggregatorKind, ConvTransE, RelGnn};
use logcl_loadgen::timing::Clock;
use logcl_serve::batcher::{BatchHandler, PredictJob, PredictOutcome};
use logcl_serve::http::{read_request, write_response, Response};
use logcl_serve::registry::RegistryOptions;
use logcl_serve::{Metrics, OverloadPolicy, OverloadState, Registry, ServeConfig};
use logcl_serve::{Wal, WalRecord};
use logcl_tensor::kernels::{backend, ops};
use logcl_tensor::{Rng, Tensor, Var};
use logcl_tkg::{HistoryIndex, Quad};
use serde_json::json;

use crate::client::Conn;
use crate::load::{ask, Draw, Query, TimeMix, TOP_K};
use crate::spec::Kind;
use crate::stats::percentile;
use crate::system::{model_spec, Scratch, System, SHARDS};
use crate::trace::{by_name, Span, Tracer};
use crate::verify::Twin;
use crate::BenchError;

/// How many requests each pass replays. The issue asked for 200; the
/// driver's per-run time cap leaves room for fewer, most on the workload
/// whose requests are cheapest.
fn replay_count(kind: Kind, smoke: bool) -> usize {
    match (smoke, kind) {
        (true, _) => 8,
        (false, Kind::HistoryRead) => 160,
        (false, Kind::ShardedRead) => 48,
        (false, Kind::HeadRead | Kind::IngestMix) => 64,
    }
}

/// What the replay found.
pub struct Replayed {
    /// Per-layer metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// The "where the time goes" table, one line per span name.
    pub table: Vec<String>,
}

/// The request bytes a client puts on the wire for `query`.
fn wire_request(query: Query) -> Vec<u8> {
    let body = query.body();
    format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The response body a server renders for `outcome` (the field set of
/// `serve::server`'s predict handler).
fn render(query: Query, time: usize, outcome: &PredictOutcome) -> String {
    let predictions: Vec<serde_json::Value> = outcome
        .predictions
        .iter()
        .map(|p| {
            json!({
                "entity": p.entity,
                "name": p.name,
                "probability": p.probability,
                "score": p.score,
                "score_bits": p.score.to_bits(),
            })
        })
        .collect();
    json!({
        "model": "default",
        "query": json!({ "subject": query.s, "relation": query.r, "time": time }),
        "predictions": predictions,
        "batch_size": outcome.batch_size,
        "cache_hit": outcome.cache_hit,
        "degraded": outcome.degraded,
    })
    .to_string()
}

/// A registry like the one `Server::start` builds, with the shipped
/// defaults, on this thread.
fn twin_registry(twin: &Twin, shard: Option<ShardSpec>) -> Result<Registry, BenchError> {
    let defaults = ServeConfig::default();
    let metrics = Arc::new(Metrics::default());
    let registry = Registry::build(
        twin.ds.clone(),
        vec![model_spec()],
        Arc::clone(&metrics),
        Arc::new(AtomicUsize::new(0)),
        RegistryOptions {
            fused: defaults.fused,
            cache_capacity: defaults.cache_capacity,
            online_steps: defaults.online_steps,
            shard,
        },
        Arc::new(OverloadState::new(OverloadPolicy::default(), metrics)),
    )?;
    Ok(registry)
}

/// One request through the twin registry, as the batcher would hand it over.
fn registry_predict(
    registry: &mut Registry,
    query: Query,
    time: usize,
) -> Result<PredictOutcome, BenchError> {
    let (reply, rx) = mpsc::channel();
    let now = Instant::now();
    registry.handle_predict_group(vec![PredictJob {
        model: "default".into(),
        s: query.s,
        r: query.r,
        t: time,
        k: TOP_K,
        deadline: now + Duration::from_secs(30),
        enqueued_at: now,
        reply,
    }]);
    rx.recv()?
        .map_err(|e| format!("twin registry answered {}: {}", e.status, e.message).into())
}

/// Pass 2: the server's request path, call by call.
fn request_path(
    tracer: &mut Tracer,
    registry: &mut Registry,
    queries: &[Query],
    head: usize,
) -> Result<(), BenchError> {
    let mut sink = Vec::with_capacity(4096);
    for (i, &query) in queries.iter().enumerate() {
        let id = i as u32;
        let wire = wire_request(query);
        let time = query.t.unwrap_or(head);
        tracer.span("request", id, |t| -> Result<(), BenchError> {
            let request = t.span("serve.http.read_request", id, |_| {
                read_request(&mut Cursor::new(&wire))
            });
            std::hint::black_box(request.map_err(|e| e.to_string())?);
            let outcome = t.span("serve.registry.predict_group", id, |_| {
                registry_predict(registry, query, time)
            })?;
            let response = Response::json(200, render(query, time, &outcome));
            sink.clear();
            t.span("serve.http.write_response", id, |_| {
                write_response(&mut sink, &response, true)
            })?;
            Ok(())
        })?;
    }
    Ok(())
}

/// Pass 3, one query: the stages of a predict on the twin model.
fn stages(
    tracer: &mut Tracer,
    twin: &mut Twin,
    id: u32,
    query: Query,
    shard: Option<(usize, usize)>,
) {
    let head = twin.ds.num_times;
    let max_edges = twin.model.cfg.max_subgraph_edges;
    let quad = [Quad::new(query.s, query.r, 0, head)];
    tracer.span("stages", id, |t| {
        let _ = std::hint::black_box(t.span("core.predict.validate_query", id, |_| {
            validate_query(&twin.ds, query.s, query.r, head)
        }));
        std::hint::black_box(t.span("tkg.history.query_subgraph", id, |_| {
            twin.history.query_subgraph(query.s, query.r, max_edges)
        }));
        let scores = t.span("core.model.forward", id, |_| {
            let out = twin
                .model
                .forward_queries(&twin.shared, &twin.history, &quad, false);
            out.logits.to_tensor().row(0).to_vec()
        });
        std::hint::black_box(t.span("core.model.forward_local_only", id, |_| {
            let out = twin
                .model
                .forward_queries_local_only(&twin.shared, &twin.history, &quad);
            out.logits.to_tensor()
        }));
        std::hint::black_box(t.span("core.predict.topk", id, |_| {
            topk_from_scores(&twin.ds, &scores, TOP_K)
        }));
        if let Some((lo, hi)) = shard {
            std::hint::black_box(t.span("core.shard.shard_topk", id, |_| {
                shard_topk(&scores[lo..hi], lo, TOP_K)
            }));
        }
    });
}

/// The `gnn` and kernel calls at the workload's shape: `|E|`×dim entity
/// matrix, one real query subgraph (≤ `max_subgraph_edges` edges).
fn shapes(tracer: &mut Tracer, twin: &Twin, queries: &[Query], rounds: usize) {
    let cfg = &twin.model.cfg;
    let (entities, dim) = (twin.ds.num_entities, cfg.dim);
    let mut rng = Rng::seed(7);
    let h = Var::constant(Tensor::randn(&[entities, dim], 0.5, &mut rng));
    let rel = Var::constant(Tensor::randn(
        &[twin.ds.num_rels_with_inverse(), dim],
        0.5,
        &mut rng,
    ));
    let gnn = RelGnn::new(AggregatorKind::Rgcn, dim, cfg.global_layers, &mut rng);
    let decoder = ConvTransE::new(dim, cfg.channels, cfg.dropout, &mut rng);
    let e_q = Var::constant(Tensor::randn(&[1, dim], 0.5, &mut rng));
    let r_q = Var::constant(Tensor::randn(&[1, dim], 0.5, &mut rng));
    // The largest subgraph among the replayed queries: the shape the global
    // encoder's R-GCN sees at its edge cap.
    let sub = queries
        .iter()
        .map(|q| {
            twin.history
                .query_subgraph(q.s, q.r, cfg.max_subgraph_edges)
        })
        .max_by_key(|g| g.edges.len())
        .unwrap_or_default();
    let (s_idx, (r_idx, o_idx)): (Vec<usize>, (Vec<usize>, Vec<usize>)) =
        sub.edges.iter().map(|&(s, r, o)| (s, (r, o))).unzip();
    let edges = EdgeBatch {
        subjects: &s_idx,
        relations: &r_idx,
        objects: &o_idx,
        num_entities: entities,
    };
    let bk = backend();
    let a_dec = vec![0.5f32; dim];
    let b_dec = vec![0.25f32; dim * entities];
    let a_gcn = vec![0.5f32; entities * dim];
    let b_gcn = vec![0.25f32; dim * dim];
    for round in 0..rounds as u32 {
        std::hint::black_box(tracer.span("gnn.rgcn.forward", round, |_| {
            gnn.forward(&h, &rel, &edges).to_tensor()
        }));
        let decoded = tracer.span("gnn.conv_transe.decode", round, |_| {
            decoder.decode(&e_q, &r_q, false, &mut rng)
        });
        std::hint::black_box(tracer.span("gnn.conv_transe.score_all", round, |_| {
            decoder.score_all(&decoded, &h).to_tensor()
        }));
        std::hint::black_box(tracer.span("tensor.kernels.matmul_decoder", round, |_| {
            ops::matmul(&*bk, &a_dec, &b_dec, 1, dim, entities)
        }));
        std::hint::black_box(tracer.span("tensor.kernels.matmul_rgcn", round, |_| {
            ops::matmul(&*bk, &a_gcn, &b_gcn, entities, dim, dim)
        }));
    }
}

/// `history_read`: what a cache miss runs, on timestamps of the cold set.
fn history_stages(tracer: &mut Tracer, twin: &mut Twin, rounds: usize) {
    let mix = TimeMix::for_horizon(twin.ds.num_times);
    for (i, &t) in mix.cold.iter().rev().take(rounds).enumerate() {
        let id = i as u32;
        std::hint::black_box(tracer.span("core.model.encode", id, |_| {
            twin.model.encode(&twin.snapshots, t, false).t_q
        }));
        std::hint::black_box(tracer.span("tkg.history.prefix_build", id, |_| {
            let mut history = HistoryIndex::new();
            for snap in &twin.snapshots[..t] {
                history.advance(snap);
            }
            history.horizon()
        }));
    }
}

/// `ingest_mix`: what one head append runs, then what `update:true` adds.
/// Leaves the twin's parameters adapted — nothing may read them afterwards.
fn ingest_stages(
    tracer: &mut Tracer,
    twin: &mut Twin,
    seed: u64,
    appends: usize,
    adapts: usize,
) -> Result<(), BenchError> {
    let scratch = Scratch::new()?;
    let mut wal = Wal::open(scratch.path().join("replay.wal"))?.wal;
    let mut draw = Draw::new(seed, 90, twin.ds.num_entities, twin.ds.num_rels, None);
    for i in 0..(appends + adapts) as u32 {
        let t = twin.ds.num_times;
        let facts = draw.facts(100);
        let fresh: Vec<Quad> = facts
            .iter()
            .map(|&(s, r, o)| Quad::new(s, r, o, t))
            .collect();
        twin.ds.test.extend_from_slice(&fresh);
        twin.ds.num_times = t + 1;
        twin.snapshots = twin.ds.snapshots();
        if i as usize >= appends {
            // The history still ends before `t`, as it does when the
            // registry adapts on a snapshot it is about to consume.
            let ctx = EvalContext {
                ds: &twin.ds,
                snapshots: &twin.snapshots,
                history: &twin.history,
                t,
            };
            std::hint::black_box(tracer.span("core.trainer.online_adapt", i, |_| {
                online_adapt(
                    &mut twin.model,
                    &ctx,
                    &fresh,
                    &OnlineAdaptOptions::default(),
                )
            }));
        }
        tracer.span("tkg.history.advance", i, |_| {
            twin.history.advance(&twin.snapshots[t]);
        });
        tracer.span("core.model.advance_state", i, |_| {
            twin.model
                .advance_encoder_state(&mut twin.state, &twin.snapshots[t]);
        });
        std::hint::black_box(tracer.span("core.model.shared_from_state", i, |_| {
            twin.model.shared_from_state(&twin.state).t_q
        }));
        let record = WalRecord {
            model: "default".into(),
            t,
            facts,
            update: false,
            ingest_id: Some(format!("replay-{i}")),
        };
        tracer.span("serve.wal.append", i, |_| wal.append(&record))?;
        tracer.span("serve.wal.sync", i, |_| wal.sync())?;
    }
    Ok(())
}

/// Service times (send → whole response) of `queries` sent one at a time
/// to `addr`, sorted, with the 200 bodies in request order.
fn socket_pass(
    addr: SocketAddr,
    queries: &[Query],
) -> Result<(Vec<u64>, Vec<Vec<u8>>), BenchError> {
    let mut conn = Conn::new(addr);
    let clock = Clock::start();
    let mut times = Vec::with_capacity(queries.len());
    let mut bodies = Vec::with_capacity(queries.len());
    for &query in queries {
        let sent = clock.elapsed_micros();
        let reply = conn.request("POST", "/predict", &[], query.body().as_bytes())?;
        times.push(clock.elapsed_micros() - sent);
        if reply.status != 200 {
            return Err(format!("unloaded predict on {addr} answered {}", reply.status).into());
        }
        bodies.push(reply.body);
    }
    times.sort_unstable();
    Ok((times, bodies))
}

/// Runs the replay of `queries` (the r2 schedule, in order) against the
/// live `system` (socket pass) and a `twin` of the served model over the
/// served dataset; `seed` drives the fact draws of the ingest stages.
pub fn replay(
    kind: Kind,
    smoke: bool,
    system: &System,
    queries: &[Query],
    twin: &mut Twin,
    seed: u64,
) -> Result<Replayed, BenchError> {
    let n = replay_count(kind, smoke).min(queries.len());
    let queries = &queries[..n];
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Pass 1: the unloaded service time, over the socket.
    let mut warm = Conn::new(system.target);
    for &query in queries.iter().take(4) {
        ask(&mut warm, Clock::start(), query, None, 0);
    }
    drop(warm);
    let (service, _) = socket_pass(system.target, queries)?;
    let unloaded_us = percentile(&service, 0.5);
    metrics.insert("client.unloaded_p50_ms", unloaded_us as f64 / 1e3);

    let mut tracer = Tracer::new(true);
    let sharded = kind == Kind::ShardedRead;
    let shard0 = if sharded {
        Some(ShardSpec::new(0, SHARDS)?)
    } else {
        None
    };
    if sharded {
        // Each shard asked directly: the router's overhead is what its p50
        // adds to the slower shard's, and the bodies feed the merge spans.
        let mut slowest = 0;
        let mut per_shard = Vec::new();
        for addr in system.worker_addrs() {
            let (times, bodies) = socket_pass(addr, queries)?;
            slowest = slowest.max(percentile(&times, 0.5));
            per_shard.push(bodies);
        }
        metrics.insert(
            "cluster.router.overhead_ms",
            (unloaded_us as f64 - slowest as f64) / 1e3,
        );
        for i in 0..n {
            let id = i as u32;
            let mut replies = Vec::with_capacity(per_shard.len());
            for bodies in &per_shard {
                replies.push(tracer.span("cluster.merge.parse_reply", id, |_| {
                    parse_shard_reply(&bodies[i])
                })?);
            }
            std::hint::black_box(tracer.span("cluster.merge.merge_replies", id, |_| {
                merge_replies(&replies, TOP_K, SHARDS)
            }));
        }
    }

    // Pass 2: the request path on a twin registry. `history_read` asks for
    // its hot set first, untraced, as the live system's warm-up did.
    let mut registry = twin_registry(twin, shard0)?;
    let head = twin.ds.num_times;
    if kind == Kind::HistoryRead {
        for &t in &TimeMix::for_horizon(head).hot {
            registry_predict(
                &mut registry,
                Query {
                    s: 0,
                    r: 0,
                    t: Some(t),
                },
                t,
            )?;
        }
    } else {
        registry_predict(&mut registry, queries[0], head)?;
    }
    request_path(&mut tracer, &mut registry, queries, head)?;
    drop(registry);

    // Pass 3: stages on the twin model. Every query runs once traced and
    // once with spans off, back to back in alternating order, so that drift
    // in machine speed cancels; the difference prices the tracing itself.
    let range = shard0.map(|s| s.range(twin.ds.num_entities));
    let mut off = Tracer::new(false);
    let mut untraced_ns = 0u128;
    for (i, &query) in queries[..n.div_ceil(2)].iter().enumerate() {
        let id = i as u32;
        let mut untraced = |twin: &mut Twin| {
            let started = Instant::now();
            stages(&mut off, twin, id, query, range);
            untraced_ns += started.elapsed().as_nanos();
        };
        if i % 2 == 0 {
            stages(&mut tracer, twin, id, query, range);
            untraced(twin);
        } else {
            untraced(twin);
            stages(&mut tracer, twin, id, query, range);
        }
    }
    let traced_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "stages")
        .map(Span::duration_ns)
        .sum();
    metrics.insert(
        "trace.overhead_share",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
    );

    let rounds = if smoke { 3 } else { 16 };
    shapes(&mut tracer, twin, queries, rounds);
    if kind == Kind::HistoryRead {
        history_stages(&mut tracer, twin, rounds.min(8));
    }
    if kind == Kind::IngestMix {
        let (appends, adapts) = if smoke { (2, 1) } else { (8, 2) };
        ingest_stages(&mut tracer, twin, seed, appends, adapts)?;
    }

    // Span medians → metrics.
    let spans = tracer.spans().to_vec();
    let durations = by_name(&spans, false);
    let p50_ns = |name: &str| durations.get(name).map_or(0, |v| percentile(v, 0.5)) as f64;
    for (metric, span, per_unit_ns) in [
        ("serve.http.read_request_us", "serve.http.read_request", 1e3),
        (
            "serve.http.write_response_us",
            "serve.http.write_response",
            1e3,
        ),
        (
            "serve.registry.predict_group_ms",
            "serve.registry.predict_group",
            1e6,
        ),
        (
            "core.predict.validate_query_us",
            "core.predict.validate_query",
            1e3,
        ),
        (
            "tkg.history.query_subgraph_us",
            "tkg.history.query_subgraph",
            1e3,
        ),
        ("core.model.forward_ms", "core.model.forward", 1e6),
        (
            "core.model.forward_local_only_ms",
            "core.model.forward_local_only",
            1e6,
        ),
        ("core.predict.topk_us", "core.predict.topk", 1e3),
        ("gnn.rgcn.forward_ms", "gnn.rgcn.forward", 1e6),
        ("gnn.conv_transe.decode_us", "gnn.conv_transe.decode", 1e3),
        (
            "gnn.conv_transe.score_all_us",
            "gnn.conv_transe.score_all",
            1e3,
        ),
        (
            "tensor.kernels.matmul_decoder_us",
            "tensor.kernels.matmul_decoder",
            1e3,
        ),
        (
            "tensor.kernels.matmul_rgcn_us",
            "tensor.kernels.matmul_rgcn",
            1e3,
        ),
        ("core.model.encode_ms", "core.model.encode", 1e6),
        (
            "tkg.history.prefix_build_ms",
            "tkg.history.prefix_build",
            1e6,
        ),
        (
            "core.model.advance_state_ms",
            "core.model.advance_state",
            1e6,
        ),
        (
            "core.model.shared_from_state_us",
            "core.model.shared_from_state",
            1e3,
        ),
        ("tkg.history.advance_us", "tkg.history.advance", 1e3),
        ("serve.wal.append_us", "serve.wal.append", 1e3),
        ("serve.wal.sync_us", "serve.wal.sync", 1e3),
        (
            "core.trainer.online_adapt_ms",
            "core.trainer.online_adapt",
            1e6,
        ),
        ("core.shard.shard_topk_us", "core.shard.shard_topk", 1e3),
        (
            "cluster.merge.parse_reply_us",
            "cluster.merge.parse_reply",
            1e3,
        ),
        (
            "cluster.merge.merge_replies_us",
            "cluster.merge.merge_replies",
            1e3,
        ),
    ] {
        metrics.insert(metric, p50_ns(span) / per_unit_ns);
    }
    // Flops computed from the shape |E|×dim · dim×dim, not counted.
    let dim = twin.model.cfg.dim as f64;
    let flops = 2.0 * twin.ds.num_entities as f64 * dim * dim;
    let gcn_ns = p50_ns("tensor.kernels.matmul_rgcn");
    metrics.insert(
        "tensor.kernels.matmul_rgcn_gflops",
        if gcn_ns > 0.0 { flops / gcn_ns } else { 0.0 },
    );
    let (full, local) = (
        p50_ns("core.model.forward"),
        p50_ns("core.model.forward_local_only"),
    );
    metrics.insert(
        "core.global_encoder.share",
        if full > 0.0 { 1.0 - local / full } else { 0.0 },
    );
    let attributed_ns = p50_ns("serve.http.read_request")
        + p50_ns("serve.registry.predict_group")
        + p50_ns("serve.http.write_response");
    let unloaded_ns = unloaded_us as f64 * 1e3;
    metrics.insert("gap.unattributed_ms", (unloaded_ns - attributed_ns) / 1e6);
    metrics.insert(
        "gap.attributed_share",
        if unloaded_ns > 0.0 {
            attributed_ns / unloaded_ns
        } else {
            0.0
        },
    );

    // The table: p50 and self-time p50 of every span, as a share of what
    // the client saw.
    let own = by_name(&spans, true);
    let mut rows: Vec<(&str, f64, f64, usize)> = durations
        .iter()
        .map(|(name, v)| {
            let self_p50 = own.get(name).map_or(0, |s| percentile(s, 0.5)) as f64;
            (*name, percentile(v, 0.5) as f64, self_p50, v.len())
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut table = vec![format!(
        "unloaded 1-client service p50 = {:.3} ms over n={n} (base of every share)",
        unloaded_ns / 1e6
    )];
    for (name, p50, self_p50, count) in rows {
        table.push(format!(
            "{name:<36} p50 {:>10.3} ms  self {:>10.3} ms  {:>6.1} % of service  n={count}",
            p50 / 1e6,
            self_p50 / 1e6,
            100.0 * p50 / unloaded_ns.max(1.0),
        ));
    }
    Ok(Replayed {
        metrics,
        spans,
        table,
    })
}
