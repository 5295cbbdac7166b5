//! Property tests for the kernel backend's determinism contract: every
//! kernel run on `Parallel` pools of 2, 3 and 8 threads must be
//! **bit-identical** (`f32::to_bits`) to `Serial`, forward and backward,
//! on random shapes — including sizes that cross the chunking thresholds so
//! the multi-task code paths are genuinely exercised. Segmented scatter-add,
//! the matmul and the elementwise kernels — whose loops are the same
//! vectorised machine code on every backend — are additionally held to scalar
//! reference implementations written out in this file.

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

/// Every [`Unary`] expression restated, one scalar at a time and never
/// inlined, so no loop around a call of it can be vectorised: what the
/// kernels' per-variant loops must reproduce bit for bit.
#[inline(never)]
fn unary_reference(op: Unary, x: f32) -> f32 {
    match op {
        Unary::Scale(s) => x * s,
        Unary::AddScalar(s) => x + s,
        Unary::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Unary::Tanh => x.tanh(),
        Unary::LeakyRelu(slope) => {
            if x >= 0.0 {
                x
            } else {
                slope * x
            }
        }
        Unary::Exp => x.exp(),
        Unary::LnClamped => x.max(1e-12).ln(),
        Unary::Cos => x.cos(),
    }
}

/// [`unary_reference`] for every [`Binary`] expression.
#[inline(never)]
fn binary_reference(op: Binary, a: f32, b: f32) -> f32 {
    match op {
        Binary::Add => a + b,
        Binary::Sub => a - b,
        Binary::Mul => a * b,
        Binary::Div => a / b,
        Binary::SigmoidBwd => a * b * (1.0 - b),
        Binary::TanhBwd => a * (1.0 - b * b),
        Binary::LeakyReluBwd(slope) => {
            if b >= 0.0 {
                a
            } else {
                slope * a
            }
        }
        Binary::LnBwd => a / b.max(1e-12),
        Binary::CosBwd => -a * b.sin(),
    }
}

/// Equal by bits, or both NaN: a reference is other machine code than the
/// kernel and a compiler may commute an add or a multiply, which can pick the
/// other operand's NaN payload and nothing else.
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

#[track_caller]
fn assert_same(label: &str, threads: usize, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (at, (&w, &g)) in want.iter().zip(got).enumerate() {
        assert!(
            same_bits(w, g),
            "{label}, {threads} threads: element {at} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits(),
        );
    }
}

/// `Serial` and every pool.
fn backends() -> impl Iterator<Item = &'static dyn Backend> {
    std::iter::once(&Serial as &dyn Backend)
        .chain(pools().iter().map(|p| p.as_ref() as &dyn Backend))
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
    // `inf · 0` makes NaNs, which `same_bits` compares by kind only. `n`: a
    // lone row, a pair, a pair and an odd last row, and row counts that leave
    // the last task a pair (40) and a lone row (9, 41).
    let mut seed = 0u64;
    for m in [1usize, 7, 31, 32, 33, 64, 65, 96, 200] {
        for k in [0usize, 1, 64] {
            for n in [1usize, 2, 3, 9, 40, 41] {
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
                        let label = format!("n={n} k={k} m={m} skip_zero={skip_zero}");
                        for bk in backends() {
                            assert_same(&label, bk.threads(), &want, &run(bk));
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

/// `special_values` with infinities, plus what the elementwise expressions
/// branch or clamp on: NaN, and values below, at and above `LnClamped`'s
/// `1e-12`.
fn elementwise_values(len: usize, seed: u64) -> Vec<f32> {
    let mut v = special_values(len, true, seed);
    let mut rng = Rng::seed(seed ^ 0xe1e);
    for x in v.iter_mut() {
        match rng.below(16) {
            0 => *x = f32::NAN,
            1 => *x = 0.5e-12,
            2 => *x = 1e-12,
            3 => *x = 2e-12,
            4 => *x = -1e-12,
            _ => {}
        }
    }
    v
}

/// `ELEM_CHUNK` in `kernels/ops.rs`: elements per task of an elementwise
/// kernel, and per task of a row-walked broadcast rounded down to whole rows.
const ELEM_CHUNK: usize = 16 * 1024;

/// The elementwise kernels against the scalar expressions, `to_bits`. Every
/// backend runs the same per-variant loop, so comparing pools with `Serial`
/// cannot see a vector form that differs from the scalar one; this can. The
/// lengths put a vector body, its remainder and an empty input on both sides
/// of 4 and 8 lanes, and the last three span one, two and three tasks.
#[test]
fn elementwise_kernels_are_the_scalar_expressions_bit_for_bit() {
    let lengths = [0usize, 1, 3, 4, 7, 8, 9, 31, 33];
    let lengths = lengths
        .into_iter()
        .chain([ELEM_CHUNK - 1, ELEM_CHUNK + 1, 2 * ELEM_CHUNK + 5]);
    for (seed, len) in lengths.enumerate() {
        let x = elementwise_values(len, seed as u64);
        let y = elementwise_values(len, seed as u64 ^ 0xb0b);
        for op in UNARIES {
            let want: Vec<f32> = x.iter().map(|&v| unary_reference(op, v)).collect();
            let label = format!("unary {op:?} len={len}");
            for bk in backends() {
                assert_same(&label, bk.threads(), &want, &ops::unary(bk, op, &x));
                let mut got = x.clone();
                ops::unary_inplace(bk, op, &mut got);
                assert_same(&format!("{label} in place"), bk.threads(), &want, &got);
            }
        }
        for op in BINARIES {
            let want: Vec<f32> = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| binary_reference(op, a, b))
                .collect();
            let label = format!("binary {op:?} len={len}");
            for bk in backends() {
                assert_same(&label, bk.threads(), &want, &ops::binary(bk, op, &x, &y));
            }
        }
    }
}

/// Every broadcast the row walk serves, and one it does not, against
/// `zip_fallback`'s per-element multi-index walk over the scalar expression:
/// matrix ∘ row vector (rank 1 and `[1, d]`), matrix ∘ column vector, column
/// ∘ row, matrix ∘ scalar, vector ∘ scalar, each in both operand orders, with
/// `n` or `d` equal to 1 and row counts on both sides of a task boundary
/// (`ELEM_CHUNK / d` rows); then rank 3, which keeps the generic walk.
#[test]
fn binary_bcast_bitwise() {
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (d, ns) in [
        (64usize, vec![1usize, 3, 255, 256, 257]),
        (7, vec![1, ELEM_CHUNK / 7, ELEM_CHUNK / 7 + 1]),
        (1, vec![1, 5, ELEM_CHUNK + 1]),
    ] {
        for n in ns {
            for other in [vec![d], vec![1, d], vec![n, 1], vec![1]] {
                cases.push((vec![n, d], other));
            }
            cases.push((vec![n, 1], vec![1, d]));
        }
        cases.push((vec![d], vec![1]));
    }
    cases.push((vec![2, 37, 5], vec![37, 5]));
    cases.push((vec![3, 1, 5], vec![1, 41, 1]));
    for (seed, (shape_x, shape_y)) in cases.into_iter().enumerate() {
        let x = elementwise_values(shape_x.iter().product(), seed as u64);
        let y = elementwise_values(shape_y.iter().product(), seed as u64 ^ 0xb0b);
        let out_shape = logcl_tensor::shape::broadcast_shape(&shape_x, &shape_y);
        for (a, sa, b, sb) in [(&x, &shape_x, &y, &shape_y), (&y, &shape_y, &x, &shape_x)] {
            for op in BINARIES {
                let f = move |p: f32, q: f32| binary_reference(op, p, q);
                let want = ops::zip_fallback(&f, a, sa, b, sb, &out_shape);
                let label = format!("binary_bcast {op:?} {sa:?} with {sb:?}");
                for bk in backends() {
                    let got = ops::binary_bcast(bk, op, a, sa, b, sb, &out_shape);
                    assert_same(&label, bk.threads(), &want, &got);
                }
            }
        }
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
