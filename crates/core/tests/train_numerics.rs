//! Pins the numerics of training. The checkpoint that CI's backend-divergence
//! gate trains —
//! `logcl train --preset icews14 --scale 0.15 --dim 8 --m 2 --epochs 1 --save F`
//! — is reproduced here in process, and the CRC32 of the file's bytes must be
//! the committed one. The fixture was generated by the binary of the commit
//! *before* the matmul kernel was tiled and inference stopped recording the
//! autograd graph, so this test passing is the proof that neither moved a
//! trained bit. A change that means to move them regenerates the fixture
//! with the command above (any `--threads`; the backends agree) and says so.
//!
//! `threads: 0` takes the backend from `LOGCL_THREADS`, which CI sets to 1
//! and to 4 around `cargo test --workspace`; CI also checks the same CRC on
//! the files the real binary saves under `--threads 1` and `--threads 4`.

use logcl_core::{LogCl, LogClConfig, TkgModel, TrainOptions};
use logcl_tensor::serialize::{crc32, save_with_meta};
use logcl_tkg::SyntheticPreset;

#[test]
fn one_epoch_checkpoint_has_the_committed_crc32() {
    let ds = SyntheticPreset::Icews14.generate_scaled(0.15);
    // `logcl train`'s configuration for those flags (cli/src/commands.rs).
    let cfg = LogClConfig {
        dim: 8,
        time_bank: 4,
        m: 2,
        seed: 42,
        threads: 0,
        ..Default::default()
    };
    let mut model = LogCl::new(&ds, cfg.clone());
    let opts = TrainOptions {
        epochs: 1,
        lr: 1e-3,
        ..Default::default()
    };
    model.fit(&ds, &opts).expect("training completes");

    let path =
        std::env::temp_dir().join(format!("logcl-train-numerics-{}.json", std::process::id()));
    save_with_meta(
        &model.params,
        &cfg.variant_name(),
        &cfg.fingerprint(),
        &path,
    )
    .expect("checkpoint written");
    let bytes = std::fs::read(&path).expect("checkpoint read back");
    std::fs::remove_file(&path).ok();

    let committed = include_str!("fixtures/train_checkpoint.crc32").trim();
    assert_eq!(
        format!("{:08x}", crc32(&bytes)),
        committed,
        "a trained parameter moved: the {}-byte checkpoint no longer hashes to the fixture",
        bytes.len()
    );
}
