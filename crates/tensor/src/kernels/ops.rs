//! The kernel implementations: every inner loop of the tensor engine.
//!
//! Each kernel takes raw slices plus dimensions and runs on the calling
//! thread; shape validation lives in the calling layer (`Tensor`/`Var`).
//! Every output element is computed with a fixed, input-independent flop
//! order (see the module docs of [`super`] for the full contract).

use super::Serial;
use crate::shape;

/// Fixed chunk size (elements) of the reduction tree used by full
/// reductions: partial sums of `REDUCE_CHUNK` elements, folded in order. The
/// tree's shape is part of the bits of every sum, and so of every
/// checkpoint.
pub const REDUCE_CHUNK: usize = 4096;

// ------------------------------------------------------------- elementwise

/// Named unary kernels: callers pass an op as data, not as a closure.
#[derive(Clone, Copy, Debug)]
pub enum Unary {
    /// `x * s`
    Scale(f32),
    /// `x + s`
    AddScalar(f32),
    /// `1 / (1 + e^-x)`
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// `x >= 0 ? x : slope * x`
    LeakyRelu(f32),
    /// `e^x`
    Exp,
    /// `ln(max(x, 1e-12))` — clamped for stability
    LnClamped,
    /// `cos(x)`
    Cos,
}

#[inline(always)]
fn unary_eval(op: Unary, x: f32) -> f32 {
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

/// Runs `$body` with `$f` bound to `|v| unary_eval(op, v)` for the variant
/// `$op` holds, the `match` on it resolved *here*, once per kernel call: in
/// each arm `unary_eval` sees a constant variant and inlines to that one
/// expression, so the element loop in `$body` is compiled per variant and the
/// arithmetic ones vectorise. `unary_eval` stays the only place an expression
/// is written down.
macro_rules! with_unary {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            Unary::Scale(s) => with_unary!(@arm Unary::Scale(s), $f, $body),
            Unary::AddScalar(s) => with_unary!(@arm Unary::AddScalar(s), $f, $body),
            Unary::Sigmoid => with_unary!(@arm Unary::Sigmoid, $f, $body),
            Unary::Tanh => with_unary!(@arm Unary::Tanh, $f, $body),
            Unary::LeakyRelu(s) => with_unary!(@arm Unary::LeakyRelu(s), $f, $body),
            Unary::Exp => with_unary!(@arm Unary::Exp, $f, $body),
            Unary::LnClamped => with_unary!(@arm Unary::LnClamped, $f, $body),
            Unary::Cos => with_unary!(@arm Unary::Cos, $f, $body),
        }
    };
    (@arm $variant:expr, $f:ident, $body:expr) => {{
        let $f = move |v: f32| unary_eval($variant, v);
        $body
    }};
}

/// Applies a named unary op elementwise.
pub fn unary(op: Unary, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    with_unary!(op, |f| {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = f(v);
        }
    });
    out
}

/// In-place variant of [`unary`].
pub fn unary_inplace(op: Unary, x: &mut [f32]) {
    with_unary!(op, |f| {
        for v in x.iter_mut() {
            *v = f(*v);
        }
    });
}

/// Escape hatch for `Tensor::map` with an arbitrary (non-`Sync`) closure:
/// sequential by design, but the loop still lives here in the kernel layer.
pub fn map_fallback(f: &dyn Fn(f32) -> f32, x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| f(v)).collect()
}

/// In-place variant of [`map_fallback`].
pub fn map_fallback_inplace(f: &dyn Fn(f32) -> f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = f(*v);
    }
}

/// Named binary kernels, including the fused backward forms that autograd
/// previously open-coded.
#[derive(Clone, Copy, Debug)]
pub enum Binary {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// Sigmoid backward: `(g, y) -> g * y * (1 - y)` where `y = σ(x)`.
    SigmoidBwd,
    /// Tanh backward: `(g, y) -> g * (1 - y²)`.
    TanhBwd,
    /// Leaky-ReLU backward: `(g, x) -> x >= 0 ? g : slope * g`.
    LeakyReluBwd(f32),
    /// Clamped-ln backward: `(g, x) -> g / max(x, 1e-12)`.
    LnBwd,
    /// Cosine backward: `(g, x) -> -g * sin(x)`.
    CosBwd,
}

#[inline(always)]
fn binary_eval(op: Binary, a: f32, b: f32) -> f32 {
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

/// [`with_unary!`] for the binary ops: `$f` is `|x, y| binary_eval(op, x, y)`
/// with the variant a constant in each arm.
macro_rules! with_binary {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            Binary::Add => with_binary!(@arm Binary::Add, $f, $body),
            Binary::Sub => with_binary!(@arm Binary::Sub, $f, $body),
            Binary::Mul => with_binary!(@arm Binary::Mul, $f, $body),
            Binary::Div => with_binary!(@arm Binary::Div, $f, $body),
            Binary::SigmoidBwd => with_binary!(@arm Binary::SigmoidBwd, $f, $body),
            Binary::TanhBwd => with_binary!(@arm Binary::TanhBwd, $f, $body),
            Binary::LeakyReluBwd(s) => with_binary!(@arm Binary::LeakyReluBwd(s), $f, $body),
            Binary::LnBwd => with_binary!(@arm Binary::LnBwd, $f, $body),
            Binary::CosBwd => with_binary!(@arm Binary::CosBwd, $f, $body),
        }
    };
    (@arm $variant:expr, $f:ident, $body:expr) => {{
        let $f = move |x: f32, y: f32| binary_eval($variant, x, y);
        $body
    }};
}

/// Applies a named binary op to equal-length slices.
pub fn binary(op: Binary, a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0.0f32; a.len()];
    with_binary!(op, |f| {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    });
    out
}

/// Broadcasting variant of [`binary`]; returns the output buffer for the
/// already-computed broadcast shape `out_shape`.
pub fn binary_bcast(
    op: Binary,
    a: &[f32],
    shape_a: &[usize],
    b: &[f32],
    shape_b: &[usize],
    out_shape: &[usize],
) -> Vec<f32> {
    let sa = shape::broadcast_strides(shape_a, out_shape);
    let sb = shape::broadcast_strides(shape_b, out_shape);
    let mut out = vec![0.0f32; shape::numel(out_shape)];
    with_binary!(op, |f| match *out_shape {
        [] => bcast_rows(&mut out, 1, a, [0, 0], b, [0, 0], f),
        [d] => bcast_rows(&mut out, d, a, [0, sa[0]], b, [0, sb[0]], f),
        [_, d] => bcast_rows(&mut out, d, a, [sa[0], sa[1]], b, [sb[0], sb[1]], f),
        _ => bcast_walk(&mut out, out_shape, a, &sa, b, &sb, f),
    });
    out
}

/// Broadcast over an output of `d`-element rows (rank ≤ 2, a vector being
/// one row). `[row, col]` are an operand's strides: at `col == 1` an output
/// row reads a row of the operand, at `col == 0` one element of it, so the
/// four combinations are plain slice loops.
fn bcast_rows(
    out: &mut [f32],
    d: usize,
    a: &[f32],
    [a_row, a_col]: [usize; 2],
    b: &[f32],
    [b_row, b_col]: [usize; 2],
    f: impl Fn(f32, f32) -> f32,
) {
    let d = d.max(1);
    for (i, o_row) in out.chunks_mut(d).enumerate() {
        let (oa, ob) = (i * a_row, i * b_row);
        match (a_col, b_col) {
            (0, 0) => o_row.fill(f(a[oa], b[ob])),
            (0, _) => {
                let x = a[oa];
                for (o, &y) in o_row.iter_mut().zip(&b[ob..ob + d]) {
                    *o = f(x, y);
                }
            }
            (_, 0) => {
                let y = b[ob];
                for (o, &x) in o_row.iter_mut().zip(&a[oa..oa + d]) {
                    *o = f(x, y);
                }
            }
            _ => {
                for ((o, &x), &y) in o_row.iter_mut().zip(&a[oa..oa + d]).zip(&b[ob..ob + d]) {
                    *o = f(x, y);
                }
            }
        }
    }
}

/// Broadcast over a rank-3 output: walks the output's multi-index
/// incrementally, stepping each operand's offset by its strides.
fn bcast_walk(
    out: &mut [f32],
    out_shape: &[usize],
    a: &[f32],
    sa: &[usize],
    b: &[f32],
    sb: &[usize],
    f: impl Fn(f32, f32) -> f32,
) {
    let rank = out_shape.len();
    let mut idx = [0usize; shape::MAX_RANK];
    let (mut oa, mut ob) = (0usize, 0usize);
    for o in out.iter_mut() {
        *o = f(a[oa], b[ob]);
        for d in (0..rank).rev() {
            idx[d] += 1;
            oa += sa[d];
            ob += sb[d];
            if idx[d] < out_shape[d] {
                break;
            }
            oa -= sa[d] * out_shape[d];
            ob -= sb[d] * out_shape[d];
            idx[d] = 0;
        }
    }
}

/// Escape hatch for `Tensor::zip` with an arbitrary closure (broadcasting,
/// sequential).
pub fn zip_fallback(
    f: &dyn Fn(f32, f32) -> f32,
    a: &[f32],
    shape_a: &[usize],
    b: &[f32],
    shape_b: &[usize],
    out_shape: &[usize],
) -> Vec<f32> {
    if shape_a == shape_b {
        return a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
    }
    let sa = shape::broadcast_strides(shape_a, out_shape);
    let sb = shape::broadcast_strides(shape_b, out_shape);
    let n = shape::numel(out_shape);
    let mut out = Vec::with_capacity(n);
    let mut idx = vec![0usize; out_shape.len()];
    for _ in 0..n {
        let (mut oa, mut ob) = (0usize, 0usize);
        for (d, &i) in idx.iter().enumerate() {
            oa += i * sa[d];
            ob += i * sb[d];
        }
        out.push(f(a[oa], b[ob]));
        for d in (0..out_shape.len()).rev() {
            idx[d] += 1;
            if idx[d] < out_shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// `a += b` over equal-length slices.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (o, &v) in a.iter_mut().zip(b) {
        *o += v;
    }
}

/// `a += s * b` over equal-length slices.
pub fn axpy(a: &mut [f32], s: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (o, &v) in a.iter_mut().zip(b) {
        *o += s * v;
    }
}

// -------------------------------------------------------------- reductions

/// Sum of a chunk's images under `f`, folded left-to-right from 0.0.
#[inline(always)]
fn fold_chunk(chunk: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut acc = 0.0f32;
    for &v in chunk {
        acc += f(v);
    }
    acc
}

/// Fixed-shape tree reduction: `REDUCE_CHUNK`-sized partial sums folded in
/// order. `f` maps each element before summation (identity for `sum`,
/// square for `sum_sq`).
fn reduce_tree(x: &[f32], f: impl Fn(f32) -> f32 + Copy) -> f32 {
    let mut acc = 0.0f32;
    for chunk in x.chunks(REDUCE_CHUNK) {
        acc += fold_chunk(chunk, f);
    }
    acc
}

/// Sum of all elements (fixed reduction tree).
pub fn sum(x: &[f32]) -> f32 {
    reduce_tree(x, |v| v)
}

/// Sum of squares of all elements (fixed reduction tree).
pub fn sum_sq(x: &[f32]) -> f32 {
    reduce_tree(x, |v| v * v)
}

/// Column sums of a row-major `[n, d]` matrix: `out[j] = Σ_i x[i, j]`, each
/// column accumulated in ascending row order.
pub fn col_sums(x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; d];
    for i in 0..n {
        for (o, &v) in out.iter_mut().zip(&x[i * d..(i + 1) * d]) {
            *o += v;
        }
    }
    out
}

/// Row sums of a row-major `[n, d]` matrix, each row folded left-to-right.
pub fn row_sums(x: &[f32], n: usize, d: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mut acc = 0.0f32;
            for &v in &x[i * d..(i + 1) * d] {
                acc += v;
            }
            acc
        })
        .collect()
}

/// Row maxima of a row-major `[n, d]` matrix (`NEG_INFINITY` fold).
pub fn max_per_row(x: &[f32], n: usize, d: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            x[i * d..(i + 1) * d]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .collect()
}

/// Broadcast-inverse reduction (gradient accumulation): sums `x` of `shape`
/// down to `target`. Fast paths cover the shapes autograd actually produces;
/// the generic path is a strided walk.
pub fn reduce_to(x: &[f32], xshape: &[usize], target: &[usize]) -> Vec<f32> {
    if shape::numel(target) == 1 {
        return vec![sum(x)];
    }
    if let &[n, d] = xshape {
        match *target {
            [td] if td == d => return col_sums(x, n, d),
            [1, td] if td == d => {
                return col_sums(x, n, d);
            }
            [tn, 1] if tn == n => return row_sums(x, n, d),
            _ => {}
        }
    }
    // Generic path: row-major walk scattering into the broadcast-strided
    // output — same element order as the historical serial loop.
    let mut out = vec![0.0f32; shape::numel(target)];
    let strides_out = shape::broadcast_strides(target, xshape);
    let rank = xshape.len();
    let mut idx = vec![0usize; rank];
    for &v in x {
        let mut o = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            o += i * strides_out[d];
        }
        out[o] += v;
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < xshape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

// ------------------------------------------------------------------ linalg

/// Dense matmul `[n, k] x [k, m] -> [n, m]`. No zero-skip branch: the dense
/// hot path runs a fixed flop order regardless of values. The first
/// argument names the backend, of which [`Serial`] is the only one; the
/// benchmark harness passes it, so the parameter stays.
pub fn matmul(_: &Serial, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    matmul_impl::<false>(a, b, n, k, m)
}

/// Matmul for callers that *know* the lhs contains many structural zeros
/// (one-hot gathers, zero-padded im2col blocks): skips zero lhs entries.
/// An element can differ from [`matmul`]'s where a skipped `0 · b` step would
/// have mattered: an infinity or a NaN in `b`, or the sign of a zero.
pub fn matmul_sparse_lhs(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    matmul_impl::<true>(a, b, n, k, m)
}

/// Fills columns `j0..` of `R` output rows at once, `W` at a time while `W`
/// more fit, and returns the first column it left: `R · W` accumulators stay
/// in vector registers for a whole `k` loop, and the `R` rows share each load
/// of a `b` tile. Each element is the reduction the determinism contract
/// fixes (DESIGN.md): an accumulator starting at `+0.0`, `k` ascending, one
/// multiply then one add per step — never a fused multiply-add, never a
/// reordered or split sum — so the bits of an element depend neither on the
/// tile that computed it nor on the width of the vector unit it ran on.
#[inline(always)]
fn matmul_tiles<const R: usize, const W: usize, const SKIP_ZERO_LHS: bool>(
    a_rows: [&[f32]; R],
    b: &[f32],
    o_rows: &mut [&mut [f32]; R],
    mut j0: usize,
) -> usize {
    let m = o_rows[0].len();
    let k = a_rows[0].len();
    // Every row re-sliced to the one `k`, so the `a_row[kk]` checks hoist.
    let a_rows = a_rows.map(|row| &row[..k]);
    while j0 + W <= m {
        let mut acc = [[0.0f32; W]; R];
        for (kk, b_row) in b.chunks_exact(m).take(k).enumerate() {
            let b_tile = &b_row[j0..j0 + W];
            for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
                let av = a_row[kk];
                if SKIP_ZERO_LHS && av == 0.0 {
                    continue;
                }
                for (c, &bv) in acc_row.iter_mut().zip(b_tile) {
                    *c += av * bv;
                }
            }
        }
        for (o_row, acc_row) in o_rows.iter_mut().zip(&acc) {
            o_row[j0..j0 + W].copy_from_slice(acc_row);
        }
        j0 += W;
    }
    j0
}

/// All of `R` output rows: tiles of `W` columns, then of 8, then single
/// columns.
#[inline(always)]
fn matmul_row_group<const R: usize, const W: usize, const SKIP_ZERO_LHS: bool>(
    a_rows: [&[f32]; R],
    b: &[f32],
    mut o_rows: [&mut [f32]; R],
) {
    let j = matmul_tiles::<R, W, SKIP_ZERO_LHS>(a_rows, b, &mut o_rows, 0);
    let j = matmul_tiles::<R, 8, SKIP_ZERO_LHS>(a_rows, b, &mut o_rows, j);
    matmul_tiles::<R, 1, SKIP_ZERO_LHS>(a_rows, b, &mut o_rows, j);
}

/// The rows of [`matmul_impl`]: all of `a · b` into `out`. Rows go two
/// at a time — a pair has twice the independent add chains of one row, which
/// is what a latency-bound tile is short of — in tiles of `W2` columns; an
/// odd last row, or the only one (the decoder's `[1, D] · [D, |E|]`), goes
/// alone in tiles of `W1`. Both widths are what eight vector registers of
/// accumulators hold, so they double with the lane count.
#[inline(always)]
fn matmul_rows<const W2: usize, const W1: usize, const SKIP_ZERO_LHS: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
) {
    let a_row = |r: usize| &a[r * k..(r + 1) * k];
    let rows = out.len() / m;
    let mut pairs = out.chunks_exact_mut(2 * m);
    for (p, pair) in pairs.by_ref().enumerate() {
        let (o0, o1) = pair.split_at_mut(m);
        let a_rows = [a_row(2 * p), a_row(2 * p + 1)];
        matmul_row_group::<2, W2, SKIP_ZERO_LHS>(a_rows, b, [o0, o1]);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        matmul_row_group::<1, W1, SKIP_ZERO_LHS>([a_row(rows - 1)], b, [last]);
    }
}

/// [`matmul_rows`] compiled for the build's baseline vector unit (SSE2 on
/// x86-64, NEON on aarch64: four lanes). The only copy that runs on a CPU
/// without AVX2.
fn matmul_rows_baseline<const SKIP_ZERO_LHS: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
) {
    matmul_rows::<16, 32, SKIP_ZERO_LHS>(a, b, out, k, m)
}

/// [`matmul_rows`] compiled for AVX2: the same source, so the same lane-wise
/// multiplies and adds in the same order, at eight lanes instead of four.
/// Enabling `avx2` does not enable `fma`, and Rust contracts `a * b + c` into
/// a fused multiply-add under no setting, so the two copies agree bit for bit.
/// Calling it from code not itself compiled for AVX2 is `unsafe`: the CPU must
/// have the feature (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_rows_avx2<const SKIP_ZERO_LHS: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
) {
    matmul_rows::<32, 64, SKIP_ZERO_LHS>(a, b, out, k, m)
}

/// Which compiled copy of the matmul tile this process runs: `"avx2"` when
/// the CPU has it (x86-64 only), else `"baseline"`. Detected once by `std`
/// and cached; the kernel asks the same question on every call.
pub fn isa() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn matmul_impl<const SKIP_ZERO_LHS: bool>(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
) -> Vec<f32> {
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), k * m);
    let mut out = vec![0.0f32; n * m];
    if out.is_empty() {
        return out;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")` on this
        // CPU, which is all that calling an `avx2` target-feature function asks.
        unsafe { matmul_rows_avx2::<SKIP_ZERO_LHS>(a, b, &mut out, k, m) };
        return out;
    }
    matmul_rows_baseline::<SKIP_ZERO_LHS>(a, b, &mut out, k, m);
    out
}

/// Transpose of a row-major `[r, c]` matrix into `[c, r]`.
pub fn transpose2(x: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; r * c];
    for (j, o_row) in out.chunks_mut(r.max(1)).enumerate() {
        for (o, x_row) in o_row.iter_mut().zip(x.chunks_exact(c.max(1))) {
            *o = x_row[j];
        }
    }
    out
}

/// Row-wise softmax of `[n, d]` logits (max-shifted).
pub fn softmax_rows(x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    for (o_row, row) in out.chunks_mut(d.max(1)).zip(x.chunks(d.max(1))) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - m).exp();
            z += *o;
        }
        let inv = 1.0 / z;
        for o in o_row.iter_mut() {
            *o *= inv;
        }
    }
    out
}

/// Softmax backward: `dx = y * (g - Σ_row(g * y))`.
pub fn softmax_rows_bwd(y: &[f32], g: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    for (i, o_row) in out.chunks_mut(d.max(1)).enumerate() {
        let yr = &y[i * d..(i + 1) * d];
        let gr = &g[i * d..(i + 1) * d];
        let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        for ((o, &yj), &gj) in o_row.iter_mut().zip(yr).zip(gr) {
            *o = yj * (gj - dot);
        }
    }
    out
}

// ---------------------------------------------------------------- indexing

/// Gathers rows: `out[i] = x[idx[i]]` over `d`-column rows. Indices must be
/// pre-validated by the caller.
pub fn gather_rows(x: &[f32], d: usize, idx: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; idx.len() * d];
    for (o_row, &src) in out.chunks_mut(d.max(1)).zip(idx) {
        o_row.copy_from_slice(&x[src * d..(src + 1) * d]);
    }
    out
}

/// Scatter-add: adds row `r` of `src` (`[idx.len(), d]`) into row `idx[r]`
/// of a fresh `[n, d]` output, in index order, so each output row
/// accumulates its sources in ascending `r`. Indices must be pre-validated
/// (`idx[r] < n`).
pub fn scatter_add_rows(src: &[f32], d: usize, idx: &[usize], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    for (r, &i) in idx.iter().enumerate() {
        let dst = &mut out[i * d..(i + 1) * d];
        for (o, &v) in dst.iter_mut().zip(&src[r * d..(r + 1) * d]) {
            *o += v;
        }
    }
    out
}

// ------------------------------------------------------------ concatenation

/// Column-wise concatenation `[n, da] || [n, db] -> [n, da + db]`.
pub fn concat_cols(a: &[f32], b: &[f32], n: usize, da: usize, db: usize) -> Vec<f32> {
    let d = da + db;
    let mut out = vec![0.0f32; n * d];
    for (i, o_row) in out.chunks_mut(d.max(1)).enumerate() {
        o_row[..da].copy_from_slice(&a[i * da..(i + 1) * da]);
        o_row[da..].copy_from_slice(&b[i * db..(i + 1) * db]);
    }
    out
}

/// Backward of [`concat_cols`]: splits `g` (`[n, da + db]`) back into the
/// two column blocks.
pub fn split_cols(g: &[f32], n: usize, da: usize, db: usize) -> (Vec<f32>, Vec<f32>) {
    let d = da + db;
    let mut ga = vec![0.0f32; n * da];
    let mut gb = vec![0.0f32; n * db];
    for i in 0..n {
        let row = &g[i * d..(i + 1) * d];
        ga[i * da..(i + 1) * da].copy_from_slice(&row[..da]);
        gb[i * db..(i + 1) * db].copy_from_slice(&row[da..]);
    }
    (ga, gb)
}

// ------------------------------------------------------------------ im2col

/// im2col for a width-3, zero-padded, 2-channel 1-D convolution (the
/// ConvTransE stem): `[b, d]` entity/relation rows -> `[b * d, 6]` windows.
pub fn im2col3(e: &[f32], r: &[f32], b: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * d * 6];
    for (bi, block) in out.chunks_mut((d * 6).max(1)).enumerate() {
        let er = &e[bi * d..(bi + 1) * d];
        let rr = &r[bi * d..(bi + 1) * d];
        for j in 0..d {
            let base = j * 6;
            if j > 0 {
                block[base] = er[j - 1];
                block[base + 3] = rr[j - 1];
            }
            block[base + 1] = er[j];
            block[base + 4] = rr[j];
            if j + 1 < d {
                block[base + 2] = er[j + 1];
                block[base + 5] = rr[j + 1];
            }
        }
    }
    out
}

/// Backward of [`im2col3`]: accumulates window gradients back onto the
/// entity and relation rows.
pub fn im2col3_bwd(g: &[f32], b: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
    let mut ge = vec![0.0f32; b * d];
    let mut gr = vec![0.0f32; b * d];
    for bi in 0..b {
        let erow = &mut ge[bi * d..(bi + 1) * d];
        let rrow = &mut gr[bi * d..(bi + 1) * d];
        for j in 0..d {
            let base = (bi * d + j) * 6;
            let row = &g[base..base + 6];
            if j > 0 {
                erow[j - 1] += row[0];
                rrow[j - 1] += row[3];
            }
            erow[j] += row[1];
            rrow[j] += row[4];
            if j + 1 < d {
                erow[j + 1] += row[2];
                rrow[j + 1] += row[5];
            }
        }
    }
    (ge, gr)
}

// ------------------------------------------------------------ fused losses

/// Cross-entropy forward: per-row `lse - logit[target]` losses (max-shifted
/// log-sum-exp), summed with the fixed reduction tree. Caller divides by N.
pub fn cross_entropy_fwd(logits: &[f32], n: usize, c: usize, targets: &[usize]) -> f32 {
    let per_row: Vec<f32> = (0..n)
        .map(|i| {
            let row = &logits[i * c..(i + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            lse - row[targets[i]]
        })
        .collect();
    sum(&per_row)
}

/// Cross-entropy backward: `(softmax(logits) - onehot) * scale` per row.
pub fn cross_entropy_bwd(
    logits: &[f32],
    n: usize,
    c: usize,
    targets: &[usize],
    scale: f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * c];
    for (i, o_row) in out.chunks_mut(c.max(1)).enumerate() {
        let row = &logits[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &x) in o_row.iter_mut().zip(row) {
            *o = (x - m).exp();
            z += *o;
        }
        let inv = 1.0 / z;
        for o in o_row.iter_mut() {
            *o *= inv;
        }
        o_row[targets[i]] -= 1.0;
        for o in o_row.iter_mut() {
            *o *= scale;
        }
    }
    out
}

/// Row-wise L2 normalization forward: returns `(y, norms)` where
/// `y[i] = x[i] / max(‖x[i]‖, 1e-8)`.
pub fn l2_normalize_rows_fwd(x: &[f32], n: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
    let mut out = vec![0.0f32; n * d];
    let mut norms = vec![0.0f32; n];
    for (i, nm) in norms.iter_mut().enumerate() {
        let row = &x[i * d..(i + 1) * d];
        let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(1e-8);
        *nm = norm;
        for (o, &v) in out[i * d..(i + 1) * d].iter_mut().zip(row) {
            *o = v / norm;
        }
    }
    (out, norms)
}

/// L2-normalize backward: `grad_x = (g - (g·y) y) / ‖x‖` per row.
pub fn l2_normalize_rows_bwd(y: &[f32], g: &[f32], norms: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    for (i, o_row) in out.chunks_mut(d.max(1)).enumerate() {
        let yr = &y[i * d..(i + 1) * d];
        let gr = &g[i * d..(i + 1) * d];
        let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        for ((o, &gj), &yj) in o_row.iter_mut().zip(gr).zip(yr) {
            *o = (gj - dot * yj) / norms[i];
        }
    }
    out
}

/// BCE-with-logits forward: Σ `max(x,0) - x*y + ln(1 + e^-|x|)` via the
/// fixed reduction tree (partials per `REDUCE_CHUNK`). Caller divides by N.
pub fn bce_fwd(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (xs, ys) in x.chunks(REDUCE_CHUNK).zip(y.chunks(REDUCE_CHUNK)) {
        let mut part = 0.0f32;
        for (&xi, &yi) in xs.iter().zip(ys) {
            part += xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln();
        }
        acc += part;
    }
    acc
}

/// BCE-with-logits backward: `scale * (σ(x) - y)` elementwise.
pub fn bce_bwd(x: &[f32], y: &[f32], scale: f32) -> Vec<f32> {
    x.iter()
        .zip(y)
        .map(|(&xi, &yi)| scale * (1.0 / (1.0 + (-xi).exp()) - yi))
        .collect()
}

// --------------------------------------------------------------- optimizer

/// Fused Adam update over one parameter: updates weights and both moment
/// estimates in place. `bc1`/`bc2` are the bias-correction denominators.
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bc1: f32,
    bc2: f32,
) {
    debug_assert!(w.len() == g.len() && w.len() == m.len() && w.len() == v.len());
    for (((wi, &gi), mi), vi) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        *mi = beta1 * *mi + (1.0 - beta1) * gi;
        *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
        let m_hat = *mi / bc1;
        let v_hat = *vi / bc2;
        *wi -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * *wi);
    }
}

// ----------------------------------------------------------------- ranking

/// Indices of the `k` largest entries, descending, ties broken by index.
pub fn topk(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    let k = k.min(idx.len());
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// 1-based filtered rank of `target`: strictly-greater count + 1, ignoring
/// masked candidates (the target itself is never masked).
pub fn rank_of(x: &[f32], target: usize, masked: &[usize]) -> usize {
    let t = x[target];
    let mut mask = vec![false; x.len()];
    for &m in masked {
        if m != target {
            mask[m] = true;
        }
    }
    let mut rank = 1usize;
    for (i, &v) in x.iter().enumerate() {
        if i == target || mask[i] {
            continue;
        }
        if v > t {
            rank += 1;
        }
    }
    rank
}

/// True when every element is finite.
pub fn all_finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline and the AVX2 instantiation of [`matmul_rows`], called
    /// directly on the same inputs: `matmul` only ever runs the one the CPU
    /// selects, so without this the other copy would go untested on any
    /// given host.
    #[test]
    fn both_compiled_copies_of_the_matmul_tile_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut rng = crate::Rng::seed(21);
            // Zeros for the sparse-lhs skip, an infinity for `inf · 0` NaNs.
            let mut values = |len: usize| -> Vec<f32> {
                let normals = crate::Tensor::randn(&[len.max(1)], 1.0, &mut rng);
                (0..len)
                    .map(|i| match i % 7 {
                        0 => 0.0,
                        3 => -0.0,
                        5 if i % 35 == 5 => f32::INFINITY,
                        _ => normals.data()[i],
                    })
                    .collect()
            };
            for n in [1usize, 2, 3, 5] {
                for k in [0usize, 1, 64] {
                    for m in [1usize, 7, 15, 16, 17, 31, 32, 33, 64, 65, 96, 200] {
                        let (a, b) = (values(n * k), values(k * m));
                        let mut base = [vec![0.0f32; n * m], vec![0.0f32; n * m]];
                        let mut wide = base.clone();
                        matmul_rows_baseline::<false>(&a, &b, &mut base[0], k, m);
                        matmul_rows_baseline::<true>(&a, &b, &mut base[1], k, m);
                        // SAFETY: `has_avx2()` was checked above.
                        unsafe {
                            matmul_rows_avx2::<false>(&a, &b, &mut wide[0], k, m);
                            matmul_rows_avx2::<true>(&a, &b, &mut wide[1], k, m);
                        }
                        for (skip_zero, (base, wide)) in base.iter().zip(&wide).enumerate() {
                            for (at, (x, y)) in base.iter().zip(wide).enumerate() {
                                assert!(
                                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                    "n={n} k={k} m={m} skip_zero={skip_zero}: element {at} is \
                                     {x:e} at four lanes, {y:e} at eight"
                                );
                            }
                        }
                    }
                }
            }
            return;
        }
        println!("skipped: no AVX2 here, so the baseline copy is the only one compiled in or run");
    }
}
