//! Pins the numerics of training. The checkpoint that CI's CRC pin
//! trains —
//! `logcl train --preset icews14 --scale 0.15 --dim 8 --m 2 --epochs 1 --save F`
//! — is reproduced here in process, and the CRC32 of the file's bytes must be
//! the committed one. The fixture was generated by the binary of the commit
//! *before* the matmul kernel was tiled and inference stopped recording the
//! autograd graph, so this test passing is the proof that neither moved a
//! trained bit. A change that means to move them regenerates the fixture
//! with the command above and says so. CI also checks the same CRC on the
//! file the real binary saves.

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
