//! Command implementations for the `logcl` CLI.

use logcl_baselines::BaselineKind;
use logcl_core::{
    evaluate_detailed, evaluate_online, evaluate_with_phase, predict_topk, CheckpointPolicy, LogCl,
    LogClConfig, Phase, TkgModel, TrainError, TrainOptions,
};
use logcl_serve::{ModelSpec, ServeConfig, Server};
use logcl_tkg::TkgDataset;

use crate::args::CliOptions;

/// Loads the dataset named by `--data` or `--preset`.
fn dataset(opts: &CliOptions) -> Result<TkgDataset, String> {
    match (&opts.data, opts.preset) {
        (Some(dir), _) => TkgDataset::load_tsv_dir(dir, dir).map_err(|e| e.to_string()),
        (None, Some(preset)) => Ok(preset.generate_scaled(opts.scale)),
        (None, None) => Err("provide --data DIR or --preset NAME".into()),
    }
}

fn logcl_config(opts: &CliOptions) -> LogClConfig {
    LogClConfig {
        dim: opts.dim,
        time_bank: (opts.dim / 4).max(4),
        m: opts.m,
        seed: opts.seed,
        ..Default::default()
    }
}

fn build_model(opts: &CliOptions, ds: &TkgDataset) -> Result<Box<dyn TkgModel>, String> {
    let kind = match opts.model.as_str() {
        "logcl" => return Ok(Box::new(LogCl::new(ds, logcl_config(opts)))),
        "regcn" | "re-gcn" => BaselineKind::ReGcn,
        "renet" | "re-net" => BaselineKind::ReNet,
        "cygnet" => BaselineKind::CyGNet,
        "tirgn" => BaselineKind::Tirgn,
        "hismatch" => BaselineKind::HisMatchLite,
        "cen" => BaselineKind::Cen,
        "cenet" => BaselineKind::Cenet,
        "distmult" => BaselineKind::DistMult,
        "convtranse" | "conv-transe" => BaselineKind::ConvTransE,
        "ttranse" => BaselineKind::TTransE,
        other => return Err(format!("unknown model {other}")),
    };
    Ok(kind.build(ds, opts.dim, opts.m, 50, opts.seed))
}

fn train_options(opts: &CliOptions) -> TrainOptions {
    // --resume without --checkpoint keeps writing to the resumed-from path,
    // so a run interrupted twice can still be resumed twice.
    let ckpt_path = opts.checkpoint.as_ref().or(opts.resume.as_ref());
    TrainOptions {
        epochs: opts.epochs,
        lr: opts.lr,
        verbose: true,
        checkpoint: ckpt_path.map(|p| CheckpointPolicy {
            path: p.into(),
            every_epochs: opts.checkpoint_every,
            on_best_valid: true,
        }),
        resume: opts.resume.as_ref().map(|p| p.into()),
        max_rollbacks: opts.max_rollbacks,
        ..Default::default()
    }
}

/// Checkpoint/resume flags drive `logcl_core::trainer`, which only the LogCL
/// model uses; reject them early for baselines instead of silently ignoring.
fn reject_fault_tolerance_flags_for_baselines(opts: &CliOptions) -> Result<(), String> {
    if opts.checkpoint.is_some() || opts.resume.is_some() {
        return Err(format!(
            "--checkpoint/--resume currently support the logcl model, not {:?}",
            opts.model
        ));
    }
    Ok(())
}

/// Turns a training failure into an actionable operator message.
fn explain_train_error(e: TrainError) -> String {
    match &e {
        TrainError::Diverged { .. } => format!(
            "training aborted: {e}\n  the last durable checkpoint (if --checkpoint was given) \
             is intact; retry with a lower --lr or a higher --max-rollbacks"
        ),
        TrainError::Resume(_) => {
            format!("{e}\n  pass the same --epochs/--dim/--m/--seed flags as the interrupted run")
        }
        TrainError::Checkpoint(_) => format!(
            "{e}\n  the training state on disk is unreadable or stale; delete it to start fresh"
        ),
    }
}

fn phase(opts: &CliOptions) -> Result<Phase, String> {
    match opts.phase.as_str() {
        "both" => Ok(Phase::Both),
        "fp" => Ok(Phase::FirstOnly),
        "sp" => Ok(Phase::SecondOnly),
        other => Err(format!("unknown phase {other} (use fp|sp|both)")),
    }
}

/// `logcl generate`: write a synthetic benchmark as TSV.
pub fn generate(opts: &CliOptions) -> Result<(), String> {
    let preset = opts.preset.ok_or("generate needs --preset")?;
    let out = opts.out.as_deref().ok_or("generate needs --out DIR")?;
    let ds = preset.generate_scaled(opts.scale);
    ds.save_tsv_dir(out).map_err(|e| e.to_string())?;
    println!("wrote {ds} to {out}");
    Ok(())
}

/// `logcl info`: dataset statistics, Table II style.
pub fn info(opts: &CliOptions) -> Result<(), String> {
    let ds = dataset(opts)?;
    println!("{ds}");
    println!("  relations incl. inverses: {}", ds.num_rels_with_inverse());
    let snaps = ds.snapshots();
    let nonempty = snaps.iter().filter(|s| !s.is_empty()).count();
    let mean_facts =
        snaps.iter().map(|s| s.len()).sum::<usize>() as f64 / snaps.len().max(1) as f64;
    println!(
        "  snapshots: {} ({} non-empty, mean {:.1} facts incl. inverses)",
        snaps.len(),
        nonempty,
        mean_facts
    );
    // Repetition rate: share of test facts whose triple occurred before.
    let seen: std::collections::HashSet<_> = ds
        .train
        .iter()
        .chain(&ds.valid)
        .map(|q| q.triple())
        .collect();
    if !ds.test.is_empty() {
        let rep = ds
            .test
            .iter()
            .filter(|q| seen.contains(&q.triple()))
            .count();
        println!(
            "  test repetition rate: {:.1}%",
            100.0 * rep as f64 / ds.test.len() as f64
        );
    }
    Ok(())
}

/// `logcl train`: fit a model, report test metrics, optionally save.
pub fn train(opts: &CliOptions) -> Result<(), String> {
    let ds = dataset(opts)?;
    println!("dataset: {ds}");
    if opts.save.is_some() && opts.model != "logcl" {
        return Err("--save currently supports the logcl model".into());
    }
    let t0 = std::time::Instant::now();
    if opts.model == "logcl" {
        let mut model = LogCl::new(&ds, logcl_config(opts));
        let report = model
            .fit(&ds, &train_options(opts))
            .map_err(explain_train_error)?;
        if let Some(epoch) = report.resumed_at_epoch {
            println!("resumed from epoch {epoch}");
        }
        for rb in &report.rollbacks {
            println!(
                "rolled back epoch {} ({}); lr {} -> {}",
                rb.epoch, rb.reason, rb.lr_before, rb.lr_after
            );
        }
        println!(
            "trained {} in {:.1}s",
            model.name(),
            t0.elapsed().as_secs_f64()
        );
        let metrics = evaluate_with_phase(&mut model, &ds, &ds.test.clone(), Phase::Both, false);
        println!("test: {metrics}");
        if let Some(path) = &opts.save {
            let cfg = logcl_config(opts);
            logcl_tensor::serialize::save_with_meta(
                &model.params,
                &cfg.variant_name(),
                &cfg.fingerprint(),
                path,
            )
            .map_err(|e| e.to_string())?;
            println!("saved parameters to {path}");
        }
    } else {
        reject_fault_tolerance_flags_for_baselines(opts)?;
        let mut model = build_model(opts, &ds)?;
        model
            .fit(&ds, &train_options(opts))
            .map_err(explain_train_error)?;
        println!(
            "trained {} in {:.1}s",
            model.name(),
            t0.elapsed().as_secs_f64()
        );
        let metrics =
            evaluate_with_phase(model.as_mut(), &ds, &ds.test.clone(), Phase::Both, false);
        println!("test: {metrics}");
    }
    Ok(())
}

/// `logcl eval`: evaluate a (possibly loaded) model.
pub fn eval(opts: &CliOptions) -> Result<(), String> {
    let ds = dataset(opts)?;
    println!("dataset: {ds}");
    if opts.model == "logcl" {
        let mut model = LogCl::new(&ds, logcl_config(opts));
        match &opts.load {
            Some(path) => {
                logcl_tensor::serialize::load(&model.params, path).map_err(|e| e.to_string())?;
                println!("loaded parameters from {path}");
            }
            None => {
                model
                    .fit(&ds, &train_options(opts))
                    .map_err(explain_train_error)?;
            }
        }
        if opts.detailed {
            let report = evaluate_detailed(&mut model, &ds, &ds.test.clone());
            println!("{report}");
            return Ok(());
        }
        let metrics = if opts.online {
            evaluate_online(&mut model, &ds, &ds.test.clone())
        } else {
            evaluate_with_phase(&mut model, &ds, &ds.test.clone(), phase(opts)?, false)
        };
        println!("test: {metrics}");
    } else {
        reject_fault_tolerance_flags_for_baselines(opts)?;
        let mut model = build_model(opts, &ds)?;
        model
            .fit(&ds, &train_options(opts))
            .map_err(explain_train_error)?;
        if opts.detailed {
            let report = evaluate_detailed(model.as_mut(), &ds, &ds.test.clone());
            println!("{report}");
            return Ok(());
        }
        let metrics = if opts.online {
            evaluate_online(model.as_mut(), &ds, &ds.test.clone())
        } else {
            evaluate_with_phase(model.as_mut(), &ds, &ds.test.clone(), phase(opts)?, false)
        };
        println!("test: {metrics}");
    }
    Ok(())
}

/// Resolves an entity or relation given by name or numeric id.
fn resolve(
    input: &str,
    by_name: impl Fn(&str) -> Option<usize>,
    limit: usize,
) -> Result<usize, String> {
    if let Some(id) = by_name(input) {
        return Ok(id);
    }
    let id: usize = input
        .parse()
        .map_err(|_| format!("unknown name or id: {input}"))?;
    if id >= limit {
        return Err(format!("id {id} out of range (< {limit})"));
    }
    Ok(id)
}

/// `logcl predict`: top-k forecast for one query.
pub fn predict(opts: &CliOptions) -> Result<(), String> {
    let ds = dataset(opts)?;
    let subject = resolve(
        opts.subject.as_deref().ok_or("predict needs --subject")?,
        |n| ds.entity_by_name(n),
        ds.num_entities,
    )?;
    let mut relation = resolve(
        opts.relation.as_deref().ok_or("predict needs --relation")?,
        |n| ds.rel_by_name(n),
        ds.num_rels_with_inverse(),
    )?;
    if opts.inverse {
        relation += ds.num_rels;
    }
    let t = opts.time.unwrap_or(ds.num_times);

    let mut model = LogCl::new(&ds, logcl_config(opts));
    match &opts.load {
        Some(path) => {
            logcl_tensor::serialize::load(&model.params, path).map_err(|e| e.to_string())?
        }
        None => {
            model
                .fit(&ds, &train_options(opts))
                .map_err(explain_train_error)?;
        }
    }
    println!(
        "query: ({}, {}, ?, t={t})",
        ds.entity_name(subject),
        ds.rel_name(relation)
    );
    let preds = predict_topk(&mut model, &ds, subject, relation, t, opts.topk)
        .map_err(|e| e.to_string())?;
    for p in preds {
        println!("  {:<30} {:.3}", p.name, p.probability);
    }
    Ok(())
}

/// `logcl serve`: run the HTTP inference server.
///
/// Loads (or trains) one LogCL model, then serves `/predict` and `/ingest`
/// with snapshot-encoding caching, each read on its own connection thread,
/// until `POST /shutdown`
/// (or process exit). With `--load` the checkpoint's metadata is validated
/// against the configuration implied by `--dim`/`--m`/`--seed`.
pub fn serve(opts: &CliOptions) -> Result<(), String> {
    if opts.model != "logcl" {
        return Err("serve currently supports the logcl model".into());
    }
    let ds = dataset(opts)?;
    println!("dataset: {ds}");
    let cfg = logcl_config(opts);
    let spec = match &opts.load {
        Some(path) => {
            let ckpt = logcl_tensor::serialize::read(path).map_err(|e| e.to_string())?;
            println!("loading checkpoint {path}");
            ModelSpec {
                name: "default".into(),
                cfg,
                checkpoint: Some(ckpt),
                train: None,
            }
        }
        None => {
            println!("no --load given; training from scratch before serving");
            ModelSpec {
                name: "default".into(),
                cfg,
                checkpoint: None,
                train: Some(train_options(opts)),
            }
        }
    };
    let shard = opts
        .shard
        .as_deref()
        .map(|s| logcl_core::ShardSpec::parse(s).map_err(|e| format!("invalid --shard {s:?}: {e}")))
        .transpose()?;
    let serve_cfg = ServeConfig {
        addr: opts.addr.clone(),
        max_batch: opts.max_batch,
        default_k: opts.topk,
        default_deadline: std::time::Duration::from_millis(opts.deadline_ms),
        max_deadline: std::time::Duration::from_millis(opts.max_deadline_ms),
        write_timeout: std::time::Duration::from_millis(opts.write_timeout_ms),
        brownout_sojourn: std::time::Duration::from_millis(opts.brownout_ms),
        shed_sojourn: std::time::Duration::from_millis(opts.shed_ms),
        brownout_k_cap: opts.brownout_k,
        max_inflight_predict: opts.max_inflight,
        wal_dir: if opts.no_durability {
            None
        } else {
            Some(std::path::PathBuf::from(&opts.wal_dir))
        },
        wal_compact_every: opts.wal_compact_every,
        online_steps: opts.online_steps,
        shard,
        ..ServeConfig::default()
    };
    let num_entities = ds.num_entities;
    let server = Server::start(serve_cfg, ds, vec![spec]).map_err(|e| e.to_string())?;
    if let Some(spec) = shard {
        let (lo, hi) = spec.range(num_entities);
        println!("worker shard {spec}: scoring entities [{lo}, {hi}) of {num_entities}");
    }
    if opts.no_durability {
        println!("durability disabled (--no-durability): ingests are lost on crash");
    } else {
        println!(
            "durable ingest: WAL + snapshots in {} (compact every {})",
            opts.wal_dir, opts.wal_compact_every
        );
    }
    println!("listening on http://{}", server.addr());
    println!("  GET  /healthz   liveness + current horizon");
    println!("  GET  /metrics   Prometheus text format");
    println!("  POST /predict   {{\"subject\": .., \"relation\": .., \"time\": .., \"k\": ..}}");
    println!("  POST /ingest    {{\"time\": .., \"facts\": [[s, r, o], ..]}}");
    println!("  POST /shutdown  graceful stop");
    server.run();
    println!("server stopped");
    Ok(())
}

/// `logcl router`: scatter-gather router over entity-sharded workers.
///
/// Fronts N `logcl serve --shard i/N` worker processes (given via
/// `--shards`) with failover, bounded retries, optional predict hedging,
/// and partial-result degradation when a shard stays down. The router
/// speaks the same HTTP protocol as a single worker, so clients need no
/// changes.
pub fn router(opts: &CliOptions) -> Result<(), String> {
    let spec = opts
        .shards
        .as_deref()
        .ok_or("router needs --shards host:port[+replica][,shard2...]")?;
    let shards = logcl_cluster::parse_shards(spec).map_err(|e| e.to_string())?;
    let workers: usize = shards.iter().map(Vec::len).sum();
    let cfg = logcl_cluster::RouterConfig {
        addr: opts.addr.clone(),
        shards,
        default_k: opts.topk,
        default_deadline: std::time::Duration::from_millis(opts.deadline_ms),
        max_deadline: std::time::Duration::from_millis(opts.max_deadline_ms),
        retries: opts.retries,
        retry_base: std::time::Duration::from_millis(opts.retry_base_ms),
        hedge_after: match opts.hedge_after_ms {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        probe_interval: std::time::Duration::from_millis(opts.probe_interval_ms.max(1)),
        ..logcl_cluster::RouterConfig::default()
    };
    let shard_count = cfg.shards.len();
    let router = logcl_cluster::Router::start(cfg).map_err(|e| e.to_string())?;
    println!("router over {shard_count} shard(s), {workers} worker(s)");
    println!("listening on http://{}", router.addr());
    println!("  GET  /healthz   router + per-worker health states");
    println!("  GET  /metrics   Prometheus text format (retries, hedges, coverage)");
    println!("  POST /predict   scatter-gather over all shards, global top-k");
    println!("  POST /ingest    exactly-once fan-out to every worker");
    println!("  POST /shutdown  graceful stop");
    router.run();
    println!("router stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::CliOptions;

    fn opts(extra: &[&str]) -> CliOptions {
        let mut args = vec![
            "--preset".to_string(),
            "icews14".to_string(),
            "--scale".to_string(),
            "0.15".to_string(),
            "--dim".to_string(),
            "8".to_string(),
            "--m".to_string(),
            "2".to_string(),
            "--epochs".to_string(),
            "1".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        CliOptions::parse(&args).unwrap()
    }

    #[test]
    fn generate_info_round_trip() {
        let dir = std::env::temp_dir().join("logcl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("ds").to_string_lossy().to_string();
        let mut o = opts(&[]);
        o.out = Some(out.clone());
        generate(&o).unwrap();
        let mut o2 = opts(&[]);
        o2.preset = None;
        o2.data = Some(out);
        info(&o2).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn train_save_then_eval_load() {
        let dir = std::env::temp_dir().join("logcl-cli-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("m.json").to_string_lossy().to_string();
        let mut o = opts(&[]);
        o.save = Some(ckpt.clone());
        train(&o).unwrap();
        let mut o2 = opts(&[]);
        o2.load = Some(ckpt);
        eval(&o2).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn predict_resolves_names() {
        let o = opts(&[
            "--subject",
            "China",
            "--relation",
            "0",
            "--topk",
            "3",
            "--time",
            "5",
        ]);
        predict(&o).unwrap();
    }

    #[test]
    fn train_with_checkpoint_writes_resumable_state() {
        let dir = std::env::temp_dir().join("logcl-cli-train-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ck").to_string_lossy().to_string();
        let mut o = opts(&[]);
        o.checkpoint = Some(path.clone());
        train(&o).unwrap();
        // The checkpoint is a durable container holding full training state.
        let ck: logcl_core::TrainCheckpoint =
            logcl_tensor::serialize::load_json_durable(&path).unwrap();
        assert_eq!(ck.next_epoch, 1);
        assert_eq!(ck.total_epochs, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_flags_are_rejected_for_baselines() {
        let mut o = opts(&[]);
        o.model = "distmult".into();
        o.checkpoint = Some("/tmp/never-written.ck".into());
        let err = train(&o).unwrap_err();
        assert!(err.contains("logcl"), "{err}");
    }

    #[test]
    fn resume_with_mismatched_flags_is_explained() {
        let dir = std::env::temp_dir().join("logcl-cli-resume-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ck").to_string_lossy().to_string();
        let mut o = opts(&[]);
        o.checkpoint = Some(path.clone());
        train(&o).unwrap();
        // Same checkpoint, different epoch budget: refused with a remedy.
        let mut o2 = opts(&[]);
        o2.epochs = 9;
        o2.resume = Some(path);
        let err = train(&o2).unwrap_err();
        assert!(err.contains("cannot resume"), "{err}");
        assert!(err.contains("--epochs"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_model_is_an_error() {
        let mut o = opts(&[]);
        o.model = "alexnet".into();
        assert!(train(&o).is_err());
    }

    #[test]
    fn baseline_models_train_via_cli() {
        for model in ["distmult", "cygnet"] {
            let mut o = opts(&[]);
            o.model = model.into();
            train(&o).unwrap();
        }
    }
}
