//! Flag parsing for the `logcl` CLI (kept dependency-free).

use logcl_tkg::SyntheticPreset;

/// Usage text shown by `logcl help` and on errors.
pub const USAGE: &str = "\
usage: logcl <command> [flags]

commands:
  generate   write a synthetic benchmark as TSV        (--preset, --scale, --out)
  info       print dataset statistics                  (--data | --preset)
  train      train a model and optionally save it      (--data | --preset, --model,
                                                        --epochs, --dim, --m, --lr,
                                                        --seed, --save,
                                                        --checkpoint, --checkpoint-every,
                                                        --resume, --max-rollbacks)
  eval       evaluate a trained or fresh model         (same as train, plus --load,
                                                        --online, --phase fp|sp|both)
  predict    top-k forecast for one query              (--load, --subject, --relation,
                                                        --time, --topk, --inverse)
  serve      HTTP inference server                     (--data | --preset, --load,
                                                        --addr, --max-batch,
                                                        --deadline-ms, --max-deadline-ms,
                                                        --write-timeout-ms, --brownout-ms,
                                                        --shed-ms, --brownout-k,
                                                        --max-inflight, --wal-dir,
                                                        --wal-compact-every,
                                                        --no-durability,
                                                        --online-steps, --shard)
  router     scatter-gather router over sharded serve  (--shards, --addr, --topk,
             workers                                    --deadline-ms,
                                                        --max-deadline-ms,
                                                        --retries, --retry-base-ms,
                                                        --hedge-after-ms,
                                                        --probe-interval-ms)
  loadgen    open-loop load generator for serve        (--rps, --duration-ms,
                                                        --arrival, --predict-pct,
                                                        --req-deadline-ms, --workers,
                                                        --target, --freshness)
  help       this text

flags:
  --data DIR        dataset directory (train/valid/test.txt TSV)
  --preset NAME     synthetic preset: icews14 | icews18 | icews0515 | gdelt
  --scale S         preset scale in (0, 1]           [default 1.0]
  --out DIR         output directory for generate
  --model NAME      logcl | regcn | cygnet | tirgn | cen | cenet | distmult |
                    convtranse | ttranse                [default logcl]
  --epochs N        training epochs                     [default 20]
  --dim D           embedding width                     [default 64]
  --m N             local history window                [default 4]
  --lr F            learning rate                       [default 1e-3]
  --seed K          RNG seed                            [default 42]
  --save FILE       write the trained parameters (JSON) (logcl only)
  --load FILE       read parameters before eval/predict (logcl only)
  --checkpoint FILE durable training checkpoint path    (logcl only)
  --checkpoint-every N
                    also checkpoint every N epochs      [default 1; 0 = only on
                                                         best-valid and at the end]
  --resume FILE     resume training from a checkpoint written by --checkpoint
                    (flags must match the interrupted run; the run then finishes
                    with bit-identical results)
  --max-rollbacks K divergence rollbacks before abort   [default 3]
  --online          Fig. 10 online adaptation during eval
  --phase P         fp | sp | both                      [default both]
  --subject NAME|ID --relation NAME|ID --time T --topk K --inverse
  --addr HOST:PORT  serve bind address                  [default 127.0.0.1:7878]
  --max-batch N     most queued ingests one group commit takes
                    (the model thread never waits for more) [default 32]
  --deadline-ms MS  default per-request deadline when the client sends no
                    X-LogCL-Deadline-Ms header          [default 30000]
  --max-deadline-ms MS
                    ceiling clamped onto client deadlines [default 120000]
  --write-timeout-ms MS
                    per-connection socket write timeout [default 10000]
  --brownout-ms MS  queue sojourn entering the Brownout tier (top-k capped
                    at --brownout-k, scores exact)      [default 50]
  --shed-ms MS      queue sojourn entering the Shed tier (503 + Retry-After
                    on /predict; /healthz and /metrics never shed)
                                                        [default 250]
  --brownout-k N    effective top-k cap in Brownout     [default 3]
  --max-inflight N  concurrent in-flight /predict cap   [default 256]
  --wal-dir DIR     durable-ingest WAL + snapshot directory; every acked
                    /ingest is fsynced and replayed on restart
                                                        [default logcl-wal]
  --wal-compact-every N
                    snapshot-compact the WAL after N logged ingests
                    (0 = never compact)                 [default 64]
  --no-durability   disable the ingest WAL (accepted facts are lost on crash)
  --online-steps N  max online fine-tuning steps per update:true ingest
                    (0 disables online adaptation)      [default 1]
  --shard I/N       serve as entity shard I of an N-way cluster: only
                    entities in this worker's range are scored, and /predict
                    answers carry the shard merge metadata a router needs
  --shards SPEC     router worker topology: comma-separated shards, each
                    host:port with optional +replica addresses, e.g.
                    127.0.0.1:7001+127.0.0.1:7004,127.0.0.1:7002
  --retries N       router retries per shard after the first attempt fails
                    (each against the next-preferred replica) [default 2]
  --retry-base-ms MS
                    router backoff base; retry n waits ~MS*2^n, jittered
                                                        [default 20]
  --hedge-after-ms MS
                    launch a hedged second predict attempt when a shard has
                    been silent this long (0 disables)  [default 0]
  --probe-interval-ms MS
                    router health-probe interval for non-Up workers
                                                        [default 250]
  --rps F           loadgen offered rate, requests/s    [default 50]
  --duration-ms MS  loadgen trace length                [default 3000]
  --arrival A       constant | poisson | burst[:PERIOD_MS:DUTY_PCT:PEAK_MULT]
                                                        [default poisson]
  --predict-pct P   predict share of the mix, 0-100     [default 90]
  --req-deadline-ms MS
                    X-LogCL-Deadline-Ms budget per request; 0 sends none
                                                        [default 250]
  --deadline-jitter-pct P
                    uniform deadline jitter, +/- percent [default 50]
  --workers N       loadgen client threads              [default 16]
  --target ADDR     drive an already-running server instead of booting one
  --freshness       run the ingest-to-visible freshness scenario instead of
                    the latency trace (requires a durable target booted by
                    loadgen itself)
  --freshness-rounds N
                    ingest->predict rounds per freshness run [default 8]
  --freshness-slo-ms MS
                    ingest-to-visible latency objective  [default 1000]";

/// Parsed CLI options (superset across commands).
#[derive(Debug, Clone)]
pub struct CliOptions {
    pub data: Option<String>,
    pub preset: Option<SyntheticPreset>,
    pub scale: f64,
    pub out: Option<String>,
    pub model: String,
    pub epochs: usize,
    pub dim: usize,
    pub m: usize,
    pub lr: f32,
    pub seed: u64,
    pub save: Option<String>,
    pub load: Option<String>,
    pub checkpoint: Option<String>,
    pub checkpoint_every: usize,
    pub resume: Option<String>,
    pub max_rollbacks: usize,
    pub online: bool,
    pub detailed: bool,
    pub phase: String,
    pub subject: Option<String>,
    pub relation: Option<String>,
    pub time: Option<usize>,
    pub topk: usize,
    pub inverse: bool,
    pub addr: String,
    pub max_batch: usize,
    /// Default per-request deadline (ms) without a client header.
    pub deadline_ms: u64,
    /// Ceiling (ms) clamped onto client-supplied deadlines.
    pub max_deadline_ms: u64,
    /// Socket write timeout (ms).
    pub write_timeout_ms: u64,
    /// Queue sojourn (ms) entering the Brownout tier.
    pub brownout_ms: u64,
    /// Queue sojourn (ms) entering the Shed tier.
    pub shed_ms: u64,
    /// Effective top-k cap while in Brownout.
    pub brownout_k: usize,
    /// Concurrent in-flight `/predict` cap.
    pub max_inflight: usize,
    /// Durable-ingest WAL + snapshot directory for `serve`.
    pub wal_dir: String,
    /// Snapshot-compact the WAL after this many logged ingests (0 = never).
    pub wal_compact_every: u64,
    /// Disable the ingest WAL entirely.
    pub no_durability: bool,
    /// Max online fine-tuning steps per `update:true` ingest (serve).
    pub online_steps: usize,
    /// Entity shard assignment `I/N` for `serve` (cluster worker mode).
    pub shard: Option<String>,
    /// Router worker topology spec (see `--shards` in the usage text).
    pub shards: Option<String>,
    /// Router retries per shard after the first attempt fails.
    pub retries: u32,
    /// Router backoff base (ms) between retries.
    pub retry_base_ms: u64,
    /// Router predict-hedging delay (ms); 0 disables hedging.
    pub hedge_after_ms: u64,
    /// Router health-probe interval (ms).
    pub probe_interval_ms: u64,
    /// Loadgen offered rate, requests/second.
    pub rps: f64,
    /// Loadgen trace length (ms).
    pub duration_ms: u64,
    /// Loadgen arrival process spec.
    pub arrival: String,
    /// Loadgen predict share of the mix (0-100).
    pub predict_pct: u8,
    /// Loadgen per-request deadline budget (ms); 0 sends no header.
    pub req_deadline_ms: u64,
    /// Loadgen deadline jitter, ± percent of the base budget.
    pub deadline_jitter_pct: u8,
    /// Loadgen client worker threads.
    pub workers: usize,
    /// Loadgen external target (`host:port`); boots a server when absent.
    pub target: Option<String>,
    /// Run the loadgen freshness scenario instead of the latency trace.
    pub freshness: bool,
    /// Ingest→predict rounds per freshness run.
    pub freshness_rounds: usize,
    /// Ingest-to-visible latency objective (ms) for the freshness scenario.
    pub freshness_slo_ms: u64,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            data: None,
            preset: None,
            scale: 1.0,
            out: None,
            model: "logcl".into(),
            epochs: 20,
            dim: 64,
            m: 4,
            lr: 1e-3,
            seed: 42,
            save: None,
            load: None,
            checkpoint: None,
            checkpoint_every: 1,
            resume: None,
            max_rollbacks: 3,
            online: false,
            detailed: false,
            phase: "both".into(),
            subject: None,
            relation: None,
            time: None,
            topk: 5,
            inverse: false,
            addr: "127.0.0.1:7878".into(),
            max_batch: 32,
            deadline_ms: 30_000,
            max_deadline_ms: 120_000,
            write_timeout_ms: 10_000,
            brownout_ms: 50,
            shed_ms: 250,
            brownout_k: 3,
            max_inflight: 256,
            wal_dir: "logcl-wal".into(),
            wal_compact_every: 64,
            no_durability: false,
            online_steps: 1,
            shard: None,
            shards: None,
            retries: 2,
            retry_base_ms: 20,
            hedge_after_ms: 0,
            probe_interval_ms: 250,
            rps: 50.0,
            duration_ms: 3_000,
            arrival: "poisson".into(),
            predict_pct: 90,
            req_deadline_ms: 250,
            deadline_jitter_pct: 50,
            workers: 16,
            target: None,
            freshness: false,
            freshness_rounds: 8,
            freshness_slo_ms: 1_000,
        }
    }
}

impl CliOptions {
    /// Parses `--flag value` pairs (and boolean flags).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut o = Self::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match flag.as_str() {
                "--data" => o.data = Some(value("--data")?),
                "--preset" => o.preset = Some(parse_preset(&value("--preset")?)?),
                "--scale" => o.scale = num(&value("--scale")?)?,
                "--out" => o.out = Some(value("--out")?),
                "--model" => o.model = value("--model")?.to_lowercase(),
                "--epochs" => o.epochs = num(&value("--epochs")?)?,
                "--dim" => o.dim = num(&value("--dim")?)?,
                "--m" => o.m = num(&value("--m")?)?,
                "--lr" => o.lr = num(&value("--lr")?)?,
                "--seed" => o.seed = num(&value("--seed")?)?,
                "--save" => o.save = Some(value("--save")?),
                "--load" => o.load = Some(value("--load")?),
                "--checkpoint" => o.checkpoint = Some(value("--checkpoint")?),
                "--checkpoint-every" => o.checkpoint_every = num(&value("--checkpoint-every")?)?,
                "--resume" => o.resume = Some(value("--resume")?),
                "--max-rollbacks" => o.max_rollbacks = num(&value("--max-rollbacks")?)?,
                "--online" => o.online = true,
                "--detailed" => o.detailed = true,
                "--phase" => o.phase = value("--phase")?.to_lowercase(),
                "--subject" => o.subject = Some(value("--subject")?),
                "--relation" => o.relation = Some(value("--relation")?),
                "--time" => o.time = Some(num(&value("--time")?)?),
                "--topk" => o.topk = num(&value("--topk")?)?,
                "--inverse" => o.inverse = true,
                "--addr" => o.addr = value("--addr")?,
                "--max-batch" => o.max_batch = num(&value("--max-batch")?)?,
                "--deadline-ms" => o.deadline_ms = num(&value("--deadline-ms")?)?,
                "--max-deadline-ms" => o.max_deadline_ms = num(&value("--max-deadline-ms")?)?,
                "--write-timeout-ms" => o.write_timeout_ms = num(&value("--write-timeout-ms")?)?,
                "--brownout-ms" => o.brownout_ms = num(&value("--brownout-ms")?)?,
                "--shed-ms" => o.shed_ms = num(&value("--shed-ms")?)?,
                "--brownout-k" => o.brownout_k = num(&value("--brownout-k")?)?,
                "--max-inflight" => o.max_inflight = num(&value("--max-inflight")?)?,
                "--wal-dir" => o.wal_dir = value("--wal-dir")?,
                "--wal-compact-every" => o.wal_compact_every = num(&value("--wal-compact-every")?)?,
                "--no-durability" => o.no_durability = true,
                "--online-steps" => o.online_steps = num(&value("--online-steps")?)?,
                "--shard" => o.shard = Some(value("--shard")?),
                "--shards" => o.shards = Some(value("--shards")?),
                "--retries" => o.retries = num(&value("--retries")?)?,
                "--retry-base-ms" => o.retry_base_ms = num(&value("--retry-base-ms")?)?,
                "--hedge-after-ms" => o.hedge_after_ms = num(&value("--hedge-after-ms")?)?,
                "--probe-interval-ms" => o.probe_interval_ms = num(&value("--probe-interval-ms")?)?,
                "--rps" => o.rps = num(&value("--rps")?)?,
                "--duration-ms" => o.duration_ms = num(&value("--duration-ms")?)?,
                "--arrival" => o.arrival = value("--arrival")?.to_lowercase(),
                "--predict-pct" => o.predict_pct = num(&value("--predict-pct")?)?,
                "--req-deadline-ms" => o.req_deadline_ms = num(&value("--req-deadline-ms")?)?,
                "--deadline-jitter-pct" => {
                    o.deadline_jitter_pct = num(&value("--deadline-jitter-pct")?)?
                }
                "--workers" => o.workers = num(&value("--workers")?)?,
                "--target" => o.target = Some(value("--target")?),
                "--freshness" => o.freshness = true,
                "--freshness-rounds" => o.freshness_rounds = num(&value("--freshness-rounds")?)?,
                "--freshness-slo-ms" => o.freshness_slo_ms = num(&value("--freshness-slo-ms")?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !(0.0..=1.0).contains(&o.scale) || o.scale == 0.0 {
            return Err("--scale must be in (0, 1]".into());
        }
        Ok(o)
    }
}

fn parse_preset(name: &str) -> Result<SyntheticPreset, String> {
    match name.to_lowercase().as_str() {
        "icews14" => Ok(SyntheticPreset::Icews14),
        "icews18" => Ok(SyntheticPreset::Icews18),
        "icews0515" | "icews05-15" => Ok(SyntheticPreset::Icews0515),
        "gdelt" => Ok(SyntheticPreset::Gdelt),
        other => Err(format!("unknown preset {other}")),
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed_flags() {
        let o = CliOptions::parse(&strs(&[
            "--preset",
            "icews14",
            "--epochs",
            "7",
            "--online",
            "--subject",
            "China",
        ]))
        .unwrap();
        assert_eq!(o.preset, Some(SyntheticPreset::Icews14));
        assert_eq!(o.epochs, 7);
        assert!(o.online);
        assert_eq!(o.subject.as_deref(), Some("China"));
    }

    #[test]
    fn rejects_unknown_flag_and_bad_scale() {
        assert!(CliOptions::parse(&strs(&["--bogus"])).is_err());
        for argv in [
            &["--linger-ms", "5"][..],
            &["--fused"],
            &["--bench-out", "/tmp/bench.json"],
            &["--baseline", "BENCH_serve.json"],
            &["--ratchet-report"],
            &["--noise-pct", "40"],
            &["--capacity"],
            &["--slo-p99-ms", "25"],
            &["--slo-max-rps", "800"],
            &["--validate", "BENCH_serve.json"],
            &["--threads", "4"],
        ] {
            let gone = CliOptions::parse(&strs(argv)).unwrap_err();
            assert_eq!(gone, format!("unknown flag {}", argv[0]));
        }
        assert!(CliOptions::parse(&strs(&["--scale", "0"])).is_err());
        assert!(CliOptions::parse(&strs(&["--scale", "2"])).is_err());
        assert!(CliOptions::parse(&strs(&["--epochs"])).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let o = CliOptions::parse(&strs(&["--addr", "0.0.0.0:9000", "--max-batch", "64"])).unwrap();
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.max_batch, 64);
    }

    #[test]
    fn parses_overload_flags() {
        let o = CliOptions::parse(&strs(&[
            "--deadline-ms",
            "5000",
            "--max-deadline-ms",
            "60000",
            "--write-timeout-ms",
            "2000",
            "--brownout-ms",
            "40",
            "--shed-ms",
            "200",
            "--brownout-k",
            "2",
            "--max-inflight",
            "128",
        ]))
        .unwrap();
        assert_eq!(o.deadline_ms, 5000);
        assert_eq!(o.max_deadline_ms, 60000);
        assert_eq!(o.write_timeout_ms, 2000);
        assert_eq!(o.brownout_ms, 40);
        assert_eq!(o.shed_ms, 200);
        assert_eq!(o.brownout_k, 2);
        assert_eq!(o.max_inflight, 128);
    }

    #[test]
    fn parses_durability_flags() {
        let o = CliOptions::parse(&strs(&[
            "--wal-dir",
            "/tmp/wal",
            "--wal-compact-every",
            "16",
        ]))
        .unwrap();
        assert_eq!(o.wal_dir, "/tmp/wal");
        assert_eq!(o.wal_compact_every, 16);
        assert!(!o.no_durability);
        let o = CliOptions::parse(&strs(&["--no-durability"])).unwrap();
        assert!(o.no_durability);
        assert_eq!(o.wal_dir, "logcl-wal");
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let o = CliOptions::parse(&strs(&[
            "--checkpoint",
            "/tmp/ck.json",
            "--checkpoint-every",
            "3",
            "--resume",
            "/tmp/ck.json",
            "--max-rollbacks",
            "5",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/ck.json"));
        assert_eq!(o.checkpoint_every, 3);
        assert_eq!(o.resume.as_deref(), Some("/tmp/ck.json"));
        assert_eq!(o.max_rollbacks, 5);
    }

    #[test]
    fn parses_loadgen_flags() {
        let o = CliOptions::parse(&strs(&[
            "--rps",
            "120.5",
            "--duration-ms",
            "2000",
            "--arrival",
            "burst:500:30:8",
            "--predict-pct",
            "70",
            "--req-deadline-ms",
            "100",
            "--deadline-jitter-pct",
            "20",
            "--workers",
            "4",
            "--target",
            "127.0.0.1:7878",
        ]))
        .unwrap();
        assert_eq!(o.rps, 120.5);
        assert_eq!(o.duration_ms, 2000);
        assert_eq!(o.arrival, "burst:500:30:8");
        assert_eq!(o.predict_pct, 70);
        assert_eq!(o.req_deadline_ms, 100);
        assert_eq!(o.deadline_jitter_pct, 20);
        assert_eq!(o.workers, 4);
        assert_eq!(o.target.as_deref(), Some("127.0.0.1:7878"));
    }

    #[test]
    fn parses_streaming_flags() {
        let o = CliOptions::parse(&strs(&[
            "--online-steps",
            "4",
            "--freshness",
            "--freshness-rounds",
            "12",
            "--freshness-slo-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(o.online_steps, 4);
        assert!(o.freshness);
        assert_eq!(o.freshness_rounds, 12);
        assert_eq!(o.freshness_slo_ms, 500);
        let d = CliOptions::parse(&strs(&[])).unwrap();
        assert_eq!(d.online_steps, 1);
        assert!(!d.freshness);
        assert_eq!(d.freshness_rounds, 8);
        assert_eq!(d.freshness_slo_ms, 1000);
    }

    #[test]
    fn parses_cluster_flags() {
        let o = CliOptions::parse(&strs(&[
            "--shard",
            "1/3",
            "--shards",
            "127.0.0.1:7001+127.0.0.1:7004,127.0.0.1:7002",
            "--retries",
            "4",
            "--retry-base-ms",
            "10",
            "--hedge-after-ms",
            "15",
            "--probe-interval-ms",
            "100",
        ]))
        .unwrap();
        assert_eq!(o.shard.as_deref(), Some("1/3"));
        assert_eq!(
            o.shards.as_deref(),
            Some("127.0.0.1:7001+127.0.0.1:7004,127.0.0.1:7002")
        );
        assert_eq!(o.retries, 4);
        assert_eq!(o.retry_base_ms, 10);
        assert_eq!(o.hedge_after_ms, 15);
        assert_eq!(o.probe_interval_ms, 100);
        let d = CliOptions::parse(&strs(&[])).unwrap();
        assert!(d.shard.is_none() && d.shards.is_none());
        assert_eq!(d.retries, 2);
        assert_eq!(d.hedge_after_ms, 0);
    }

    #[test]
    fn loadgen_defaults_are_sane() {
        let o = CliOptions::parse(&strs(&[])).unwrap();
        assert_eq!(o.rps, 50.0);
        assert_eq!(o.duration_ms, 3_000);
        assert_eq!(o.arrival, "poisson");
        assert_eq!(o.workers, 16);
        assert!(o.target.is_none());
    }

    #[test]
    fn preset_aliases() {
        assert!(parse_preset("ICEWS05-15").is_ok());
        assert!(parse_preset("gdelt").is_ok());
        assert!(parse_preset("wikidata").is_err());
    }
}
