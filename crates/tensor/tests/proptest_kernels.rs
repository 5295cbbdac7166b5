//! The kernels' determinism contract, held to scalar reference
//! implementations written out in this file, `f32::to_bits`: the tiled,
//! vectorised matmul, the per-variant elementwise loops, the broadcasting row
//! walk and scatter-add.

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
/// reductions, dense and sparse-lhs.
#[test]
fn tiled_matmul_is_the_ikj_reference_bit_for_bit() {
    // `inf · 0` makes NaNs, which `same_bits` compares by kind only. `n`: a
    // lone row, a pair, a pair and an odd last row, and longer runs of pairs
    // ending in a pair (40) and in a lone row (9, 41).
    let mut seed = 0u64;
    for m in [1usize, 7, 31, 32, 33, 64, 65, 96, 200] {
        for k in [0usize, 1, 64] {
            for n in [1usize, 2, 3, 9, 40, 41] {
                for infinities in [false, true] {
                    seed += 1;
                    let a = special_values(n * k, infinities, seed);
                    let b = special_values(k * m, infinities, seed ^ 0xb0b);
                    for skip_zero in [false, true] {
                        let got = if skip_zero {
                            ops::matmul_sparse_lhs(&a, &b, n, k, m)
                        } else {
                            ops::matmul(&Serial, &a, &b, n, k, m)
                        };
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
            assert_same(&label, &want, &ops::unary(op, &x));
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
            assert_same(&label, &want, &ops::binary(op, &x, &y));
        }
    }
}

/// Every broadcast the row walk serves, and one it does not, against
/// `zip_fallback`'s per-element multi-index walk over the scalar expression:
/// matrix ∘ row vector (rank 1 and `[1, d]`), matrix ∘ column vector, column
/// ∘ row, matrix ∘ scalar, vector ∘ scalar, each in both operand orders, with
/// `n` or `d` equal to 1; then rank 3, which keeps the generic walk.
#[test]
fn binary_bcast_bitwise() {
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (d, ns) in [
        (64usize, vec![1usize, 3, 257]),
        (7, vec![1, 2_341]),
        (1, vec![1, 5, 16_385]),
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
                let got = ops::binary_bcast(op, a, sa, b, sb, &out_shape);
                assert_same(&label, &want, &got);
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
