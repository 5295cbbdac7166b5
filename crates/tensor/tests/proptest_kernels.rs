//! The kernels' determinism contract, held to scalar reference
//! implementations written out in this file, `f32::to_bits`: the tiled,
//! vectorised matmul, the per-variant elementwise loops, the broadcasting row
//! walk and scatter-add, and every kernel that writes its output once,
//! without zero-filling it first, at the shapes where a forgotten element
//! would hide (empty, one element, odd lengths, each side of a tile width).

use logcl_tensor::kernels::{ops, Binary, Serial, Unary};
use logcl_tensor::{Rng, Tensor};
use proptest::prelude::*;

fn randn(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed(seed);
    Tensor::randn(&[n.max(1)], 1.0, &mut rng).data()[..n].to_vec()
}

/// Deterministic indices in `0..n` derived from a seed.
fn indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed(seed ^ 0x5eed);
    (0..len).map(|_| rng.below(n)).collect()
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
fn assert_same(label: &str, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (at, (&w, &g)) in want.iter().zip(got).enumerate() {
        assert!(
            same_bits(w, g),
            "{label}: element {at} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits(),
        );
    }
}

/// A finite value no reference below produces, left in freed memory by
/// [`poisoned`] so that an output slot a kernel forgets to write reads as it
/// rather than as the zero a fresh page would hold.
const POISON: f32 = f32::from_bits(0x7f7f_dead);

/// Runs `kernel` right after freeing a buffer of `len` [`POISON`]s: the
/// allocator hands the same block to a kernel output of that size, so an
/// element left unwritten compares unequal to its reference.
fn poisoned<T>(len: usize, kernel: impl FnOnce() -> T) -> T {
    drop(vec![POISON; len]);
    kernel()
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
/// and tail (`m` on both sides of 8, 32 and 64), empty and single-step
/// reductions, dense and sparse-lhs. The output is written into spare
/// capacity, never zero-filled, so [`poisoned`] makes an element no tile
/// wrote fail here.
#[test]
fn tiled_matmul_is_the_ikj_reference_bit_for_bit() {
    // `inf · 0` makes NaNs, which `same_bits` compares by kind only. `n`:
    // none, a lone row, a pair, a pair and an odd last row, and longer runs
    // of pairs ending in a pair (40) and in a lone row (9, 41).
    let mut seed = 0u64;
    for m in [0usize, 1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 96, 200] {
        for k in [0usize, 1, 64] {
            for n in [0usize, 1, 2, 3, 9, 40, 41] {
                for infinities in [false, true] {
                    seed += 1;
                    let a = special_values(n * k, infinities, seed);
                    let b = special_values(k * m, infinities, seed ^ 0xb0b);
                    for skip_zero in [false, true] {
                        let got = poisoned(n * m, || {
                            if skip_zero {
                                ops::matmul_sparse_lhs(&a, &b, n, k, m)
                            } else {
                                ops::matmul(&Serial, &a, &b, n, k, m)
                            }
                        });
                        let want = matmul_reference(&a, &b, n, k, m, skip_zero);
                        let label = format!("n={n} k={k} m={m} skip_zero={skip_zero}");
                        assert_same(&label, &want, &got);
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

/// The elementwise kernels against the scalar expressions, `to_bits`: a
/// vector form that differs from the scalar one shows here. The lengths put a
/// vector body, its remainder and an empty input on both sides of 4 and 8
/// lanes, plus a long input.
#[test]
fn elementwise_kernels_are_the_scalar_expressions_bit_for_bit() {
    let lengths = [0usize, 1, 3, 4, 7, 8, 9, 31, 33, 32_773];
    for (seed, len) in lengths.into_iter().enumerate() {
        let x = elementwise_values(len, seed as u64);
        let y = elementwise_values(len, seed as u64 ^ 0xb0b);
        for op in UNARIES {
            let want: Vec<f32> = x.iter().map(|&v| unary_reference(op, v)).collect();
            let label = format!("unary {op:?} len={len}");
            assert_same(&label, &want, &poisoned(len, || ops::unary(op, &x)));
            let mut got = x.clone();
            ops::unary_inplace(op, &mut got);
            assert_same(&format!("{label} in place"), &want, &got);
        }
        for op in BINARIES {
            let want: Vec<f32> = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| binary_reference(op, a, b))
                .collect();
            let label = format!("binary {op:?} len={len}");
            assert_same(&label, &want, &poisoned(len, || ops::binary(op, &x, &y)));
        }
    }
}

/// Every broadcast the row walk serves, and one it does not, against
/// `zip_fallback`'s per-element multi-index walk over the scalar expression:
/// matrix ∘ row vector (rank 1 and `[1, d]`), matrix ∘ column vector, column
/// ∘ row, matrix ∘ scalar, vector ∘ scalar, each in both operand orders, with
/// `n` or `d` equal to 1 or 0; then rank 3, which keeps the generic walk,
/// and rank 0.
#[test]
fn binary_bcast_bitwise() {
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (d, ns) in [
        (64usize, vec![1usize, 3, 257]),
        (7, vec![1, 2_341]),
        (1, vec![1, 5, 16_385]),
        (0, vec![0, 1, 3]),
        (5, vec![0]),
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
    cases.push((vec![2, 0, 5], vec![1, 5]));
    cases.push((vec![], vec![]));
    for (seed, (shape_x, shape_y)) in cases.into_iter().enumerate() {
        let x = elementwise_values(shape_x.iter().product(), seed as u64);
        let y = elementwise_values(shape_y.iter().product(), seed as u64 ^ 0xb0b);
        let out_shape = logcl_tensor::shape::broadcast_shape(&shape_x, &shape_y);
        for (a, sa, b, sb) in [(&x, &shape_x, &y, &shape_y), (&y, &shape_y, &x, &shape_x)] {
            for op in BINARIES {
                let f = move |p: f32, q: f32| binary_reference(op, p, q);
                let want = ops::zip_fallback(&f, a, sa, b, sb, &out_shape);
                let label = format!("binary_bcast {op:?} {sa:?} with {sb:?}");
                let len = out_shape.iter().product();
                let got = poisoned(len, || ops::binary_bcast(op, a, sa, b, sb, &out_shape));
                assert_same(&label, &want, &got);
            }
        }
    }
}

/// `matmul_sparse_lhs` skips zero lhs entries, and that changes no bit while
/// the rhs rows it skips are finite: every accumulator starts at `+0.0`, a
/// round-to-nearest sum from there never reaches `-0.0`, and adding `±0` to
/// it changes nothing. Zero masks over an lhs with both zeros and
/// subnormals, compared strictly by `to_bits` (no NaN can arise); then an
/// infinity planted in a skipped rhs row, the one case that differs.
#[test]
fn sparse_lhs_matmul_is_the_dense_one_over_a_finite_rhs() {
    let mut seed = 900u64;
    for m in [1usize, 7, 8, 9, 33, 64, 65] {
        for k in [1usize, 2, 5, 64] {
            for n in [1usize, 2, 3, 8] {
                seed += 1;
                let mut rng = Rng::seed(seed);
                let a: Vec<f32> = special_values(n * k, false, seed)
                    .into_iter()
                    .map(|v| if rng.below(3) == 0 { 0.0 } else { v })
                    .collect();
                let b = special_values(k * m, false, seed ^ 0xb0b);
                let dense = ops::matmul(&Serial, &a, &b, n, k, m);
                let sparse = ops::matmul_sparse_lhs(&a, &b, n, k, m);
                for (at, (d, s)) in dense.iter().zip(&sparse).enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        s.to_bits(),
                        "n={n} k={k} m={m}: element {at} is {s:e} sparse, {d:e} dense"
                    );
                }
            }
        }
    }
    // `[0, 1] · [[inf], [2]]`: the dense sum meets `0 · inf`; the sparse one
    // never reads that row.
    let (a, b) = ([0.0f32, 1.0], [f32::INFINITY, 2.0]);
    assert!(ops::matmul(&Serial, &a, &b, 1, 2, 1)[0].is_nan());
    assert_eq!(ops::matmul_sparse_lhs(&a, &b, 1, 2, 1), vec![2.0]);
}

/// The row-wise kernels written out one element at a time into a
/// zero-filled output, in the kernels' flop order.
mod reference {
    pub fn transpose2(x: &[f32], r: usize, c: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = x[i * c + j];
            }
        }
        out
    }

    pub fn gather_rows(x: &[f32], d: usize, idx: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; idx.len() * d];
        for (r, &src) in idx.iter().enumerate() {
            for c in 0..d {
                out[r * d + c] = x[src * d + c];
            }
        }
        out
    }

    pub fn concat_cols(a: &[f32], b: &[f32], n: usize, da: usize, db: usize) -> Vec<f32> {
        let d = da + db;
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            for c in 0..d {
                out[i * d + c] = if c < da {
                    a[i * da + c]
                } else {
                    b[i * db + c - da]
                };
            }
        }
        out
    }

    /// The max-shifted exponentials of row `i`, their sum folded from
    /// `0.0` left to right, and each exponential times its reciprocal.
    fn softmax_row(x: &[f32], i: usize, d: usize, out: &mut [f32]) {
        let mut m = f32::NEG_INFINITY;
        for j in 0..d {
            m = m.max(x[i * d + j]);
        }
        let mut z = 0.0f32;
        for j in 0..d {
            out[i * d + j] = (x[i * d + j] - m).exp();
            z += out[i * d + j];
        }
        let inv = 1.0 / z;
        for j in 0..d {
            out[i * d + j] *= inv;
        }
    }

    pub fn softmax_rows(x: &[f32], n: usize, d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            softmax_row(x, i, d, &mut out);
        }
        out
    }

    /// `Σ_j y[i, j] · g[i, j]`, summed as `Iterator::sum` does: from `-0.0`,
    /// left to right.
    fn row_dot(y: &[f32], g: &[f32], i: usize, d: usize) -> f32 {
        let mut dot = -0.0f32;
        for j in 0..d {
            dot += y[i * d + j] * g[i * d + j];
        }
        dot
    }

    pub fn softmax_rows_bwd(y: &[f32], g: &[f32], n: usize, d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            let dot = row_dot(y, g, i, d);
            for j in 0..d {
                out[i * d + j] = y[i * d + j] * (g[i * d + j] - dot);
            }
        }
        out
    }

    pub fn cross_entropy_bwd(
        logits: &[f32],
        n: usize,
        c: usize,
        targets: &[usize],
        scale: f32,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            softmax_row(logits, i, c, &mut out);
            out[i * c + targets[i]] -= 1.0;
            for j in 0..c {
                out[i * c + j] *= scale;
            }
        }
        out
    }

    pub fn l2_normalize_rows_fwd(x: &[f32], n: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
        let mut out = vec![0.0f32; n * d];
        let mut norms = vec![0.0f32; n];
        for i in 0..n {
            let mut sq = -0.0f32;
            for j in 0..d {
                sq += x[i * d + j] * x[i * d + j];
            }
            norms[i] = sq.sqrt().max(1e-8);
            for j in 0..d {
                out[i * d + j] = x[i * d + j] / norms[i];
            }
        }
        (out, norms)
    }

    pub fn l2_normalize_rows_bwd(
        y: &[f32],
        g: &[f32],
        norms: &[f32],
        n: usize,
        d: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            let dot = row_dot(y, g, i, d);
            for j in 0..d {
                out[i * d + j] = (g[i * d + j] - dot * y[i * d + j]) / norms[i];
            }
        }
        out
    }
}

/// Every other kernel that writes its output once, against [`reference`]
/// by `to_bits`, after [`poisoned`]: row counts of none, one and odd ones,
/// row widths of none, one and odd ones. Includes `gather_rows` with no
/// indices, `concat_cols` / `split_cols` with a zero-width side, and
/// `transpose2` with either dimension zero. The elementwise kernels'
/// lengths (0, 1 and odd) are in the tests above.
#[test]
fn row_kernels_write_every_element_once() {
    let sizes = [0usize, 1, 2, 3, 7, 9, 33];
    let mut seed = 700u64;
    for n in sizes {
        for d in sizes {
            seed += 1;
            let label = format!("n={n} d={d}");
            let x = elementwise_values(n * d, seed);
            let g = elementwise_values(n * d, seed ^ 0x9);
            let logits = randn(n * d, seed ^ 0x1);

            let got = poisoned(n * d, || ops::transpose2(&x, n, d));
            assert_same(
                &format!("transpose2 {label}"),
                &reference::transpose2(&x, n, d),
                &got,
            );

            let got = poisoned(n * d, || ops::softmax_rows(&logits, n, d));
            let want = reference::softmax_rows(&logits, n, d);
            assert_same(&format!("softmax_rows {label}"), &want, &got);
            let got = poisoned(n * d, || ops::softmax_rows_bwd(&want, &g, n, d));
            let want_bwd = reference::softmax_rows_bwd(&want, &g, n, d);
            assert_same(&format!("softmax_rows_bwd {label}"), &want_bwd, &got);

            if d > 0 {
                let targets = indices(n, d, seed);
                let got = poisoned(n * d, || {
                    ops::cross_entropy_bwd(&logits, n, d, &targets, 0.25)
                });
                let want = reference::cross_entropy_bwd(&logits, n, d, &targets, 0.25);
                assert_same(&format!("cross_entropy_bwd {label}"), &want, &got);
            }

            let (y, norms) = poisoned(n * d, || ops::l2_normalize_rows_fwd(&x, n, d));
            let (want_y, want_norms) = reference::l2_normalize_rows_fwd(&x, n, d);
            assert_same(&format!("l2_normalize_rows_fwd {label}"), &want_y, &y);
            assert_same(
                &format!("l2_normalize_rows_fwd norms {label}"),
                &want_norms,
                &norms,
            );
            let got = poisoned(n * d, || ops::l2_normalize_rows_bwd(&y, &g, &norms, n, d));
            let want = reference::l2_normalize_rows_bwd(&y, &g, &norms, n, d);
            assert_same(&format!("l2_normalize_rows_bwd {label}"), &want, &got);

            // `n` indices into a table of `d` rows of width 3 (none when the
            // table is empty), and `d` into one of `n`.
            for (rows, len) in [(d, n), (n, d)] {
                let table = elementwise_values(rows * 3, seed ^ 0x2);
                let idx = if rows == 0 {
                    Vec::new()
                } else {
                    indices(len, rows, seed)
                };
                let got = poisoned(idx.len() * 3, || ops::gather_rows(&table, 3, &idx));
                let want = reference::gather_rows(&table, 3, &idx);
                assert_same(
                    &format!("gather_rows rows={rows} len={}", idx.len()),
                    &want,
                    &got,
                );
            }

            // `x` as `[n, d]` beside a `[n, 3]` block, on either side: `d`
            // takes the zero width.
            let side = elementwise_values(n * 3, seed ^ 0x3);
            for (a, da, b, db) in [(&x, d, &side, 3), (&side, 3, &x, d)] {
                let joined = poisoned(n * (da + db), || ops::concat_cols(a, b, n, da, db));
                let want = reference::concat_cols(a, b, n, da, db);
                assert_same(
                    &format!("concat_cols {label} da={da} db={db}"),
                    &want,
                    &joined,
                );
                let (ga, gb) = poisoned(n * da, || ops::split_cols(&joined, n, da, db));
                assert_same(&format!("split_cols lhs {label} da={da} db={db}"), a, &ga);
                assert_same(&format!("split_cols rhs {label} da={da} db={db}"), b, &gb);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scalar reference accumulates each row in index order, as the
    /// kernel promises, so even the f32 rounding matches.
    #[test]
    fn gather_and_scatter_match_the_reference(
        seed in 0u64..u64::MAX,
        rows in 1usize..600,
        d in 1usize..64,
        len in 1usize..2_000,
    ) {
        let table = randn(rows * d, seed);
        let idx = indices(len, rows, seed);
        let gathered = ops::gather_rows(&table, d, &idx);
        for (r, &i) in idx.iter().enumerate() {
            prop_assert_eq!(&gathered[r * d..(r + 1) * d], &table[i * d..(i + 1) * d]);
        }
        let src = randn(len * d, seed.wrapping_add(1));
        let want = scatter_reference(&src, d, &idx, rows);
        let got = ops::scatter_add_rows(&src, d, &idx, rows);
        prop_assert!(
            want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
            "scatter_add_rows diverged from the reference"
        );
    }
}
