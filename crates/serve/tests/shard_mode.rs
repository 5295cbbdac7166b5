//! Worker shard mode (`--shard i/N`) end-to-end: N sharded servers over
//! the same model must, between them, carry exactly the information a
//! router needs to reproduce the single-node answer — bit-identical raw
//! scores over disjoint entity ranges, plus softmax partials that
//! recombine into the global probabilities.

use std::time::Duration;

use logcl_core::{merge_topk, ScoredEntity, ShardSpec, SoftmaxStat};
use logcl_serve::{ServeConfig, Server};
use serde_json::Value;

mod common;
use common::{json, request, tiny_ds, untrained_spec};

const SHARDS: usize = 3;

fn boot(shard: Option<ShardSpec>) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        shard,
        // Exactness test: keep degradation out of reach (see integration.rs).
        brownout_sojourn: Duration::from_secs(10),
        shed_sojourn: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    Server::start(cfg, tiny_ds(), vec![untrained_spec()]).expect("server must start")
}

/// `(entity, score_bits)` pairs from a `/predict` reply, in reply order.
fn scored(body: &Value) -> Vec<ScoredEntity> {
    body.get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
        .iter()
        .map(|p| ScoredEntity {
            entity: p.get("entity").and_then(Value::as_u64).expect("entity") as usize,
            score: f32::from_bits(
                p.get("score_bits").and_then(Value::as_u64).expect("bits") as u32,
            ),
        })
        .collect()
}

#[test]
fn sharded_workers_reconstruct_the_single_node_answer_bit_exactly() {
    let single = boot(None);
    let workers: Vec<Server> = (0..SHARDS)
        .map(|i| boot(Some(ShardSpec::new(i, SHARDS).expect("spec"))))
        .collect();

    let t = {
        let (status, body) = request(single.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        json(&body).get("horizon").and_then(Value::as_u64).unwrap()
    };
    let k = 10usize;

    for (s, r) in [(0u64, 0u64), (1, 0), (2, 1)] {
        let query = format!(r#"{{"subject": {s}, "relation": {r}, "time": {t}, "k": {k}}}"#);

        let (status, body) = request(single.addr(), "POST", "/predict", &query);
        assert_eq!(status, 200, "{body}");
        let reference = json(&body);
        let want = scored(&reference);
        assert_eq!(want.len(), k);

        let mut per_shard: Vec<Vec<ScoredEntity>> = Vec::new();
        let mut stats: Vec<SoftmaxStat> = Vec::new();
        let mut total_entities = 0u64;
        for (i, w) in workers.iter().enumerate() {
            let (status, body) = request(w.addr(), "POST", "/predict", &query);
            assert_eq!(status, 200, "shard {i}: {body}");
            let reply = json(&body);

            // Shard provenance: index/count/range plus softmax partials.
            let shard = reply.get("shard").expect("shard object in --shard mode");
            assert_eq!(shard.get("index").and_then(Value::as_u64), Some(i as u64));
            assert_eq!(
                shard.get("count").and_then(Value::as_u64),
                Some(SHARDS as u64)
            );
            let lo = shard.get("lo").and_then(Value::as_u64).expect("lo") as usize;
            let hi = shard.get("hi").and_then(Value::as_u64).expect("hi") as usize;
            let (want_lo, want_hi) = ShardSpec::new(i, SHARDS).unwrap().range(
                shard
                    .get("entities")
                    .and_then(Value::as_u64)
                    .expect("entities") as usize,
            );
            assert_eq!((lo, hi), (want_lo, want_hi));
            total_entities = shard.get("entities").and_then(Value::as_u64).unwrap();

            let candidates = scored(&reply);
            assert!(
                candidates.iter().all(|c| c.entity >= lo && c.entity < hi),
                "shard {i} leaked candidates outside [{lo}, {hi})"
            );
            per_shard.push(candidates);
            stats.push(SoftmaxStat {
                max: f32::from_bits(
                    shard
                        .get("softmax_max_bits")
                        .and_then(Value::as_u64)
                        .expect("max bits") as u32,
                ),
                sum_exp: f32::from_bits(
                    shard
                        .get("softmax_sum_exp_bits")
                        .and_then(Value::as_u64)
                        .expect("sum bits") as u32,
                ),
            });
        }
        assert!(total_entities > 0);

        // Router-equivalent merge: same entities, same order, same bits.
        let merged = merge_topk(&per_shard, k);
        assert_eq!(merged.len(), want.len());
        for (rank, (m, w)) in merged.iter().zip(want.iter()).enumerate() {
            assert_eq!(m.entity, w.entity, "rank {rank} entity mismatch");
            assert_eq!(
                m.score.to_bits(),
                w.score.to_bits(),
                "rank {rank} score bits mismatch"
            );
        }

        // Recombined softmax partials reproduce global probabilities.
        let combined = SoftmaxStat::combine(&stats);
        let ref_probs: Vec<f32> = reference
            .get("predictions")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|p| p.get("probability").and_then(Value::as_f64).unwrap() as f32)
            .collect();
        for (m, want_p) in merged.iter().zip(ref_probs.iter()) {
            let got = combined.probability(m.score);
            assert!(
                (got - want_p).abs() <= 1e-5,
                "entity {}: combined probability {got} vs single-node {want_p}",
                m.entity
            );
        }
    }

    for w in workers {
        w.shutdown();
    }
    single.shutdown();
}

#[test]
fn worker_healthz_advertises_its_shard_assignment() {
    let worker = boot(Some(ShardSpec::new(1, SHARDS).expect("spec")));
    let (status, body) = request(worker.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = json(&body);
    let shard = health.get("shard").expect("shard object");
    assert_eq!(shard.get("index").and_then(Value::as_u64), Some(1));
    assert_eq!(
        shard.get("count").and_then(Value::as_u64),
        Some(SHARDS as u64)
    );
    let entities = health
        .get("entities")
        .and_then(Value::as_u64)
        .expect("entities");
    assert!(entities > 0);
    let lo = shard.get("lo").and_then(Value::as_u64).unwrap();
    let hi = shard.get("hi").and_then(Value::as_u64).unwrap();
    assert!(lo < hi && hi <= entities);
    worker.shutdown();
}
