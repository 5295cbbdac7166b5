//! Property tests for the kernel backend's determinism contract: every
//! kernel run on `Parallel` pools of 2, 3 and 8 threads must be
//! **bit-identical** (`f32::to_bits`) to `Serial`, forward and backward,
//! on random shapes — including sizes that cross the chunking thresholds so
//! the multi-task code paths are genuinely exercised. Segmented scatter-add
//! is additionally fuzzed against a scalar reference implementation.

use std::sync::{Arc, OnceLock};

use logcl_tensor::kernels::{ops, Backend, Binary, Parallel, Serial, Unary};
use logcl_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Shared pools, built once: spawning threads per proptest case would
/// dominate the run time.
fn pools() -> &'static [Arc<Parallel>] {
    static POOLS: OnceLock<Vec<Arc<Parallel>>> = OnceLock::new();
    POOLS.get_or_init(|| {
        [2, 3, 8]
            .into_iter()
            .map(|t| Arc::new(Parallel::new(t)))
            .collect()
    })
}

fn randn(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed(seed);
    Tensor::randn(&[n.max(1)], 1.0, &mut rng).data()[..n].to_vec()
}

/// Deterministic indices in `0..n` derived from a seed.
fn indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed(seed ^ 0x5eed);
    (0..len).map(|_| rng.below(n)).collect()
}

#[track_caller]
fn bits_eq(label: &str, threads: usize, serial: &[f32], got: &[f32]) -> Result<(), TestCaseError> {
    prop_assert!(
        serial.len() == got.len(),
        "{}: length mismatch ({} vs {})",
        label,
        serial.len(),
        got.len()
    );
    for (i, (s, g)) in serial.iter().zip(got).enumerate() {
        prop_assert!(
            s.to_bits() == g.to_bits(),
            "{} diverged from serial at element {} on {} threads ({} vs {})",
            label,
            i,
            threads,
            s,
            g
        );
    }
    Ok(())
}

/// Checks a pure kernel: runs it on `Serial` and every pool, comparing bits.
fn check(label: &str, run: impl Fn(&dyn Backend) -> Vec<f32>) -> Result<(), TestCaseError> {
    let reference = run(&Serial);
    for bk in pools() {
        bits_eq(label, bk.threads(), &reference, &run(bk.as_ref()))?;
    }
    Ok(())
}

const UNARIES: [Unary; 8] = [
    Unary::Scale(-1.75),
    Unary::AddScalar(0.5),
    Unary::Sigmoid,
    Unary::Tanh,
    Unary::LeakyRelu(0.2),
    Unary::Exp,
    Unary::LnClamped,
    Unary::Cos,
];

const BINARIES: [Binary; 9] = [
    Binary::Add,
    Binary::Sub,
    Binary::Mul,
    Binary::Div,
    Binary::SigmoidBwd,
    Binary::TanhBwd,
    Binary::LeakyReluBwd(0.2),
    Binary::LnBwd,
    Binary::CosBwd,
];

/// Scalar reference for segmented scatter-add: accumulates in index order,
/// which is exactly the order the segmented kernel guarantees per row.
fn scatter_reference(src: &[f32], d: usize, idx: &[usize], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    for (r, &i) in idx.iter().enumerate() {
        for c in 0..d {
            out[i * d + c] += src[r * d + c];
        }
    }
    out
}

/// The matmul reduction contract, written out: per output element an
/// accumulator starting at `+0.0`, `k` ascending, one multiply then one add.
/// This i-k-j loop is the kernel as it stood before it was tiled; the tiled
/// kernel must reproduce it bit for bit.
fn matmul_reference(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    skip_zero: bool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for kk in 0..k {
            let av = a[i * k + kk];
            if skip_zero && av == 0.0 {
                continue;
            }
            for j in 0..m {
                out[i * m + j] += av * b[kk * m + j];
            }
        }
    }
    out
}

/// `len` values drawn from a palette that mixes ordinary normals with the
/// values a reordered or re-seeded sum gets wrong: both zeros, subnormals,
/// and (when `infinities`) `±inf`.
fn special_values(len: usize, infinities: bool, seed: u64) -> Vec<f32> {
    let normals = randn(len, seed);
    let mut rng = Rng::seed(seed ^ 0x7a11);
    (0..len)
        .map(|i| match rng.below(if infinities { 12 } else { 10 }) {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 => 1.0e-40,
            5 => -3.0e-42,
            10 => f32::INFINITY,
            11 => f32::NEG_INFINITY,
            _ => normals[i],
        })
        .collect()
}

/// The tiled matmul against the reference loop, `to_bits`: every tile width
/// and tail (`m` on both sides of 8 and 32), empty and single-step
/// reductions, dense and sparse-lhs, `Serial` and every pool (`n = 40` spans
/// several tasks at the larger shapes).
#[test]
fn tiled_matmul_is_the_ikj_reference_bit_for_bit() {
    // `inf · 0` makes NaNs. The reference is other machine code than the
    // kernel and a compiler may commute an add, so two NaNs count as equal
    // whatever their payload; everything else is compared by bits.
    let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    let mut seed = 0u64;
    for m in [1usize, 7, 31, 32, 33, 64, 65, 96, 200] {
        for k in [0usize, 1, 64] {
            for n in [1usize, 9, 40] {
                for infinities in [false, true] {
                    seed += 1;
                    let a = special_values(n * k, infinities, seed);
                    let b = special_values(k * m, infinities, seed ^ 0xb0b);
                    for skip_zero in [false, true] {
                        let run = |bk: &dyn Backend| {
                            if skip_zero {
                                ops::matmul_sparse_lhs(bk, &a, &b, n, k, m)
                            } else {
                                ops::matmul(bk, &a, &b, n, k, m)
                            }
                        };
                        let want = matmul_reference(&a, &b, n, k, m, skip_zero);
                        let backends = std::iter::once(&Serial as &dyn Backend)
                            .chain(pools().iter().map(|p| p.as_ref() as &dyn Backend));
                        for bk in backends {
                            let got = run(bk);
                            assert_eq!(got.len(), want.len());
                            for (at, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same(g, w),
                                    "n={n} k={k} m={m} skip_zero={skip_zero} threads={}: \
                                     element {at} is {g:e} ({:#x}), reference {w:e} ({:#x})",
                                    bk.threads(),
                                    g.to_bits(),
                                    w.to_bits(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // The accumulator starts at +0.0, not at the first product: a sum whose
    // only term is -0.0 is +0.0, in a tile column and in a tail column alike.
    for m in [1usize, 8, 32, 41] {
        let out = ops::matmul(&Serial, &[-0.0], &vec![2.0; m], 1, 1, m);
        assert!(out.iter().all(|v| v.to_bits() == 0), "m={m}: {out:?}");
    }
}

proptest! {
    // Sizes deliberately span the kernels' chunking constants
    // (REDUCE_CHUNK = 4096, ELEM_CHUNK = 16384 elements) so both the
    // inline fast path and the multi-task path are hit.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unary_forward_and_backward_bitwise(seed in 0u64..u64::MAX, n in 1usize..40_000) {
        let x = randn(n, seed);
        for op in UNARIES {
            check(&format!("unary {op:?}"), |bk| ops::unary(bk, op, &x))?;
            let mut inplace_ref = x.clone();
            ops::unary_inplace(&Serial, op, &mut inplace_ref);
            for bk in pools() {
                let mut got = x.clone();
                ops::unary_inplace(bk.as_ref(), op, &mut got);
                bits_eq(&format!("unary_inplace {op:?}"), bk.threads(), &inplace_ref, &got)?;
            }
        }
    }

    #[test]
    fn binary_bitwise(seed in 0u64..u64::MAX, n in 1usize..40_000) {
        let a = randn(n, seed);
        let b = randn(n, seed.wrapping_add(1));
        for op in BINARIES {
            check(&format!("binary {op:?}"), |bk| ops::binary(bk, op, &a, &b))?;
        }
    }

    #[test]
    fn binary_bcast_bitwise(seed in 0u64..u64::MAX, rows in 1usize..300, cols in 1usize..200) {
        let a = randn(rows * cols, seed);
        let b = randn(cols, seed.wrapping_add(1));
        let (sa, sb) = (vec![rows, cols], vec![cols]);
        check("binary_bcast row-vector", |bk| {
            ops::binary_bcast(bk, Binary::Mul, &a, &sa, &b, &sb, &sa)
        })?;
    }

    #[test]
    fn accumulators_bitwise(seed in 0u64..u64::MAX, n in 1usize..40_000, s in -2.0f32..2.0) {
        let a = randn(n, seed);
        let b = randn(n, seed.wrapping_add(1));
        let mut add_ref = a.clone();
        ops::add_assign(&Serial, &mut add_ref, &b);
        let mut axpy_ref = a.clone();
        ops::axpy(&Serial, &mut axpy_ref, s, &b);
        for bk in pools() {
            let mut got = a.clone();
            ops::add_assign(bk.as_ref(), &mut got, &b);
            bits_eq("add_assign", bk.threads(), &add_ref, &got)?;
            let mut got = a.clone();
            ops::axpy(bk.as_ref(), &mut got, s, &b);
            bits_eq("axpy", bk.threads(), &axpy_ref, &got)?;
        }
    }

    #[test]
    fn reductions_bitwise(seed in 0u64..u64::MAX, n in 1usize..40_000) {
        let x = randn(n, seed);
        check("sum", |bk| vec![ops::sum(bk, &x)])?;
        check("sum_sq", |bk| vec![ops::sum_sq(bk, &x)])?;
    }

    #[test]
    fn row_col_reductions_bitwise(seed in 0u64..u64::MAX, n in 1usize..200, d in 1usize..150) {
        let x = randn(n * d, seed);
        check("col_sums", |bk| ops::col_sums(bk, &x, n, d))?;
        check("row_sums", |bk| ops::row_sums(bk, &x, n, d))?;
        check("max_per_row", |bk| ops::max_per_row(bk, &x, n, d))?;
        check("reduce_to rows", |bk| ops::reduce_to(bk, &x, &[n, d], &[1, d]))?;
        check("reduce_to cols", |bk| ops::reduce_to(bk, &x, &[n, d], &[n, 1]))?;
    }

    #[test]
    fn matmul_bitwise(seed in 0u64..u64::MAX, n in 1usize..48, k in 1usize..48, m in 1usize..48) {
        let a = randn(n * k, seed);
        let b = randn(k * m, seed.wrapping_add(1));
        check("matmul", |bk| ops::matmul(bk, &a, &b, n, k, m))?;
        // The sparse-lhs variant must agree bitwise across backends too,
        // including when the lhs really contains structural zeros.
        let mut a0 = a.clone();
        for v in a0.iter_mut().step_by(3) {
            *v = 0.0;
        }
        check("matmul_sparse_lhs", |bk| ops::matmul_sparse_lhs(bk, &a0, &b, n, k, m))?;
    }

    #[test]
    fn big_matmul_crosses_task_threshold(seed in 0u64..u64::MAX) {
        // 96*80*64 flops >> MATMUL_TASK_FLOPS: several tasks per backend.
        let (n, k, m) = (96, 80, 64);
        let a = randn(n * k, seed);
        let b = randn(k * m, seed.wrapping_add(1));
        check("matmul large", |bk| ops::matmul(bk, &a, &b, n, k, m))?;
    }

    #[test]
    fn transpose_and_concat_bitwise(seed in 0u64..u64::MAX, n in 1usize..120, da in 1usize..60, db in 1usize..60) {
        let a = randn(n * da, seed);
        let b = randn(n * db, seed.wrapping_add(1));
        check("transpose2", |bk| ops::transpose2(bk, &a, n, da))?;
        check("concat_cols", |bk| ops::concat_cols(bk, &a, &b, n, da, db))?;
        let g = randn(n * (da + db), seed.wrapping_add(2));
        check("split_cols", |bk| {
            let (ga, gb) = ops::split_cols(bk, &g, n, da, db);
            let mut out = ga;
            out.extend(gb);
            out
        })?;
    }

    #[test]
    fn softmax_bitwise(seed in 0u64..u64::MAX, n in 1usize..150, d in 1usize..150) {
        let x = randn(n * d, seed);
        let y = ops::softmax_rows(&Serial, &x, n, d);
        check("softmax_rows", |bk| ops::softmax_rows(bk, &x, n, d))?;
        let g = randn(n * d, seed.wrapping_add(1));
        check("softmax_rows_bwd", |bk| ops::softmax_rows_bwd(bk, &y, &g, n, d))?;
    }

    #[test]
    fn gather_scatter_bitwise_and_vs_reference(
        seed in 0u64..u64::MAX,
        rows in 1usize..600,
        d in 1usize..64,
        len in 1usize..2_000,
    ) {
        let table = randn(rows * d, seed);
        let idx = indices(len, rows, seed);
        check("gather_rows", |bk| ops::gather_rows(bk, &table, d, &idx))?;
        let src = randn(len * d, seed.wrapping_add(1));
        let reference = scatter_reference(&src, d, &idx, rows);
        // The scalar reference accumulates per-row in index order — the
        // segmented kernel's guarantee — so even the f32 rounding matches.
        bits_eq("scatter serial vs reference", 1, &reference,
                &ops::scatter_add_rows(&Serial, &src, d, &idx, rows))?;
        for bk in pools() {
            bits_eq("scatter parallel vs reference", bk.threads(), &reference,
                    &ops::scatter_add_rows(bk.as_ref(), &src, d, &idx, rows))?;
        }
    }

    #[test]
    fn im2col_bitwise(seed in 0u64..u64::MAX, b in 1usize..40, d in 1usize..48) {
        let e = randn(b * d, seed);
        let r = randn(b * d, seed.wrapping_add(1));
        check("im2col3", |bk| ops::im2col3(bk, &e, &r, b, d))?;
        let g = randn(b * d * 6, seed.wrapping_add(2));
        check("im2col3_bwd", |bk| {
            let (ge, gr) = ops::im2col3_bwd(bk, &g, b, d);
            let mut out = ge;
            out.extend(gr);
            out
        })?;
    }

    #[test]
    fn losses_bitwise(seed in 0u64..u64::MAX, n in 1usize..200, c in 2usize..40) {
        let logits = randn(n * c, seed);
        let targets = indices(n, c, seed);
        check("cross_entropy_fwd", |bk| {
            vec![ops::cross_entropy_fwd(bk, &logits, n, c, &targets)]
        })?;
        check("cross_entropy_bwd", |bk| {
            ops::cross_entropy_bwd(bk, &logits, n, c, &targets, 0.37)
        })?;
        let y: Vec<f32> = indices(n * c, 2, seed.wrapping_add(1))
            .into_iter()
            .map(|v| v as f32)
            .collect();
        check("bce_fwd", |bk| vec![ops::bce_fwd(bk, &logits, &y)])?;
        check("bce_bwd", |bk| ops::bce_bwd(bk, &logits, &y, 0.51))?;
    }

    #[test]
    fn l2_normalize_bitwise(seed in 0u64..u64::MAX, n in 1usize..200, d in 1usize..64) {
        let x = randn(n * d, seed);
        let (y, norms) = ops::l2_normalize_rows_fwd(&Serial, &x, n, d);
        check("l2_normalize_rows_fwd", |bk| {
            let (out, nrm) = ops::l2_normalize_rows_fwd(bk, &x, n, d);
            let mut all = out;
            all.extend(nrm);
            all
        })?;
        let g = randn(n * d, seed.wrapping_add(1));
        check("l2_normalize_rows_bwd", |bk| {
            ops::l2_normalize_rows_bwd(bk, &y, &g, &norms, n, d)
        })?;
    }

    #[test]
    fn adam_step_bitwise(seed in 0u64..u64::MAX, n in 1usize..40_000) {
        let w0 = randn(n, seed);
        let g = randn(n, seed.wrapping_add(1));
        let m0 = randn(n, seed.wrapping_add(2));
        let v0: Vec<f32> = randn(n, seed.wrapping_add(3)).iter().map(|v| v * v).collect();
        let step = |bk: &dyn Backend| {
            let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
            ops::adam_step(bk, &mut w, &g, &mut m, &mut v,
                           1e-3, 0.9, 0.999, 1e-8, 1e-5, 0.1, 0.001);
            let mut all = w;
            all.extend(m);
            all.extend(v);
            all
        };
        let reference = step(&Serial);
        for bk in pools() {
            bits_eq("adam_step", bk.threads(), &reference, &step(bk.as_ref()))?;
        }
    }
}
