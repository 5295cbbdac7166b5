//! The kernel implementations: every inner loop of the tensor engine.
//!
//! Each kernel takes the [`Backend`] it should run on and raw slices plus
//! dimensions; shape validation lives in the calling layer (`Tensor`/`Var`).
//! Parallel execution always follows the same recipe — split the *output*
//! into disjoint regions, compute each region with a fixed per-element flop
//! order — so results are bit-identical across backends and thread counts
//! (see the module docs of [`super`] for the full determinism contract).

use super::Backend;
use crate::shape;

/// Fixed chunk size (elements) of the reduction tree used by full
/// reductions. Compile-time constant so the tree shape never depends on
/// thread count.
pub const REDUCE_CHUNK: usize = 4096;

/// Target elements per task for elementwise kernels.
const ELEM_CHUNK: usize = 16 * 1024;

/// Target multiply-adds per task for matmul kernels.
const MATMUL_TASK_FLOPS: usize = 64 * 1024;

/// Target elements per task for row-structured kernels (softmax, norms...).
const ROW_TASK_ELEMS: usize = 4096;

/// Reduction-tree chunks folded per parallel task.
const PARTIALS_PER_TASK: usize = 8;

/// Minimum scatter work (source elements) before segmenting the output.
const SCATTER_MIN_WORK: usize = 16 * 1024;

/// Upper bound on scatter segments (each segment scans the full index list).
const SCATTER_MAX_SEGMENTS: usize = 32;

// ------------------------------------------------------------ partitioning

/// Raw mutable base pointer that may cross threads. Tasks derive disjoint
/// slices from it; the caller guarantees the allocation outlives the kernel.
#[derive(Clone, Copy)]
struct MutPtr(*mut f32);
// SAFETY: the one field is the base address of a `&mut [f32]` that the
// function building the `MutPtr` (`par_chunks`, `par_row_chunks2`,
// `adam_step`) holds exclusively for its whole body. `Backend::run_tasks`
// returns only after every task has run, so no task — on whichever thread —
// outlives that borrow, and moving the address to a worker moves no ownership
// (`f32` has no drop and no thread affinity).
unsafe impl Send for MutPtr {}
// SAFETY: sharing the wrapper shares only the address (`get` copies it out);
// nothing is read or written through `&MutPtr` itself. Every task turns the
// address into a slice over its own `[lo, hi)` range, the ranges of distinct
// task indices are disjoint by construction, and `run_tasks` hands each index
// to exactly one task, so no two threads ever hold a slice over the same
// element and the underlying `&mut [f32]` is never aliased.
unsafe impl Sync for MutPtr {}

impl MutPtr {
    /// Accessor used inside task closures: going through a method makes the
    /// closure capture the whole (Sync) wrapper rather than the raw pointer
    /// field, which edition-2021 precise capture would otherwise pick.
    #[inline(always)]
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Splits `out` into `chunk`-element pieces and runs `f(offset, piece)` for
/// each on the backend. The pieces are disjoint, so any execution order
/// yields the same bytes.
fn par_chunks(
    bk: &dyn Backend,
    out: &mut [f32],
    chunk: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let ptr = MutPtr(out.as_mut_ptr());
    bk.run_tasks(n.div_ceil(chunk), &|t| {
        let lo = t * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: tasks cover disjoint [lo, hi) ranges of a live allocation.
        let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
        f(lo, piece);
    });
}

/// Row-range variant of [`par_chunks`] for two parallel outputs of `rows`
/// rows each (`da`/`db` columns): runs `f(row_lo, n_rows, a_piece, b_piece)`
/// over disjoint row ranges.
#[allow(clippy::too_many_arguments)]
fn par_row_chunks2(
    bk: &dyn Backend,
    a: &mut [f32],
    da: usize,
    b: &mut [f32],
    db: usize,
    rows: usize,
    rows_per_task: usize,
    f: impl Fn(usize, usize, &mut [f32], &mut [f32]) + Sync,
) {
    if rows == 0 {
        return;
    }
    let rows_per_task = rows_per_task.max(1);
    let pa = MutPtr(a.as_mut_ptr());
    let pb = MutPtr(b.as_mut_ptr());
    bk.run_tasks(rows.div_ceil(rows_per_task), &|t| {
        let lo = t * rows_per_task;
        let hi = (lo + rows_per_task).min(rows);
        // SAFETY: disjoint row ranges of two live allocations.
        let (sa, sb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(lo * da), (hi - lo) * da),
                std::slice::from_raw_parts_mut(pb.get().add(lo * db), (hi - lo) * db),
            )
        };
        f(lo, hi - lo, sa, sb);
    });
}

// ------------------------------------------------------------- elementwise

/// Named unary kernels (object-safe dispatch, no closures across threads).
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
pub fn unary(bk: &dyn Backend, op: Unary, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    with_unary!(op, |f| par_chunks(bk, &mut out, ELEM_CHUNK, |lo, piece| {
        let len = piece.len();
        for (o, &v) in piece.iter_mut().zip(&x[lo..lo + len]) {
            *o = f(v);
        }
    }));
    out
}

/// In-place variant of [`unary`].
pub fn unary_inplace(bk: &dyn Backend, op: Unary, x: &mut [f32]) {
    with_unary!(op, |f| par_chunks(bk, x, ELEM_CHUNK, |_, piece| {
        for v in piece.iter_mut() {
            *v = f(*v);
        }
    }));
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
pub fn binary(bk: &dyn Backend, op: Binary, a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0.0f32; a.len()];
    with_binary!(op, |f| par_chunks(bk, &mut out, ELEM_CHUNK, |lo, piece| {
        let len = piece.len();
        for ((o, &x), &y) in piece.iter_mut().zip(&a[lo..lo + len]).zip(&b[lo..lo + len]) {
            *o = f(x, y);
        }
    }));
    out
}

/// Broadcasting variant of [`binary`]; returns the output buffer for the
/// already-computed broadcast shape `out_shape`.
pub fn binary_bcast(
    bk: &dyn Backend,
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
        [] => bcast_rows(bk, &mut out, 1, a, [0, 0], b, [0, 0], f),
        [d] => bcast_rows(bk, &mut out, d, a, [0, sa[0]], b, [0, sb[0]], f),
        [_, d] => bcast_rows(bk, &mut out, d, a, [sa[0], sa[1]], b, [sb[0], sb[1]], f),
        _ => bcast_walk(bk, &mut out, out_shape, a, &sa, b, &sb, f),
    });
    out
}

/// Broadcast over an output of `d`-element rows (rank ≤ 2, a vector being
/// one row). `[row, col]` are an operand's strides: at `col == 1` an output
/// row reads a row of the operand, at `col == 0` one element of it, so the
/// four combinations are plain slice loops. Tasks split on row boundaries.
#[allow(clippy::too_many_arguments)]
fn bcast_rows(
    bk: &dyn Backend,
    out: &mut [f32],
    d: usize,
    a: &[f32],
    [a_row, a_col]: [usize; 2],
    b: &[f32],
    [b_row, b_col]: [usize; 2],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    let d = d.max(1);
    let rows_per_task = (ELEM_CHUNK / d).max(1);
    par_chunks(bk, out, rows_per_task * d, |lo, piece| {
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let i = lo / d + r;
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
    });
}

/// Broadcast over a rank-3 output: decomposes each task's flat start offset
/// into a multi-index, then walks it incrementally — identical element order
/// to the serial loop.
#[allow(clippy::too_many_arguments)]
fn bcast_walk(
    bk: &dyn Backend,
    out: &mut [f32],
    out_shape: &[usize],
    a: &[f32],
    sa: &[usize],
    b: &[f32],
    sb: &[usize],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    let rank = out_shape.len();
    par_chunks(bk, out, ELEM_CHUNK, |lo, piece| {
        let mut idx = [0usize; shape::MAX_RANK];
        let mut rem = lo;
        for d in (0..rank).rev() {
            idx[d] = rem % out_shape[d];
            rem /= out_shape[d];
        }
        let (mut oa, mut ob) = (0usize, 0usize);
        for d in 0..rank {
            oa += idx[d] * sa[d];
            ob += idx[d] * sb[d];
        }
        for o in piece.iter_mut() {
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
    });
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
pub fn add_assign(bk: &dyn Backend, a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    par_chunks(bk, a, ELEM_CHUNK, |lo, piece| {
        let len = piece.len();
        for (o, &v) in piece.iter_mut().zip(&b[lo..lo + len]) {
            *o += v;
        }
    });
}

/// `a += s * b` over equal-length slices.
pub fn axpy(bk: &dyn Backend, a: &mut [f32], s: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    par_chunks(bk, a, ELEM_CHUNK, |lo, piece| {
        let len = piece.len();
        for (o, &v) in piece.iter_mut().zip(&b[lo..lo + len]) {
            *o += s * v;
        }
    });
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
fn reduce_tree(bk: &dyn Backend, x: &[f32], f: impl Fn(f32) -> f32 + Sync + Copy) -> f32 {
    let n_parts = x.len().div_ceil(REDUCE_CHUNK);
    if n_parts <= PARTIALS_PER_TASK {
        // Small input: fold the same tree on the calling thread.
        let mut acc = 0.0f32;
        for chunk in x.chunks(REDUCE_CHUNK) {
            acc += fold_chunk(chunk, f);
        }
        return acc;
    }
    let mut partials = vec![0.0f32; n_parts];
    par_chunks(bk, &mut partials, PARTIALS_PER_TASK, |lo, piece| {
        for (pi, p) in piece.iter_mut().enumerate() {
            let start = (lo + pi) * REDUCE_CHUNK;
            let end = (start + REDUCE_CHUNK).min(x.len());
            *p = fold_chunk(&x[start..end], f);
        }
    });
    let mut acc = 0.0f32;
    for p in partials {
        acc += p;
    }
    acc
}

/// Sum of all elements (fixed reduction tree).
pub fn sum(bk: &dyn Backend, x: &[f32]) -> f32 {
    reduce_tree(bk, x, |v| v)
}

/// Sum of squares of all elements (fixed reduction tree).
pub fn sum_sq(bk: &dyn Backend, x: &[f32]) -> f32 {
    reduce_tree(bk, x, |v| v * v)
}

/// Column sums of a row-major `[n, d]` matrix: `out[j] = Σ_i x[i, j]`, each
/// column accumulated in ascending row order.
pub fn col_sums(bk: &dyn Backend, x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; d];
    let cols_per_task = (ROW_TASK_ELEMS / n.max(1)).max(1);
    par_chunks(bk, &mut out, cols_per_task, |j0, piece| {
        for i in 0..n {
            let row = &x[i * d + j0..i * d + j0 + piece.len()];
            for (o, &v) in piece.iter_mut().zip(row) {
                *o += v;
            }
        }
    });
    out
}

/// Row sums of a row-major `[n, d]` matrix, each row folded left-to-right.
pub fn row_sums(bk: &dyn Backend, x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task, |i0, piece| {
        for (r, o) in piece.iter_mut().enumerate() {
            let i = i0 + r;
            let mut acc = 0.0f32;
            for &v in &x[i * d..(i + 1) * d] {
                acc += v;
            }
            *o = acc;
        }
    });
    out
}

/// Row maxima of a row-major `[n, d]` matrix (`NEG_INFINITY` fold).
pub fn max_per_row(bk: &dyn Backend, x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task, |i0, piece| {
        for (r, o) in piece.iter_mut().enumerate() {
            let i = i0 + r;
            *o = x[i * d..(i + 1) * d]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
        }
    });
    out
}

/// Broadcast-inverse reduction (gradient accumulation): sums `x` of `shape`
/// down to `target`. Fast paths cover the shapes autograd actually produces;
/// the generic strided walk runs sequentially on any backend (identical
/// code, so trivially bit-stable).
pub fn reduce_to(bk: &dyn Backend, x: &[f32], xshape: &[usize], target: &[usize]) -> Vec<f32> {
    if shape::numel(target) == 1 {
        return vec![sum(bk, x)];
    }
    if let &[n, d] = xshape {
        match *target {
            [td] if td == d => return col_sums(bk, x, n, d),
            [1, td] if td == d => {
                return col_sums(bk, x, n, d);
            }
            [tn, 1] if tn == n => return row_sums(bk, x, n, d),
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
/// hot path runs a fixed flop order regardless of values.
pub fn matmul(bk: &dyn Backend, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    matmul_impl::<false>(bk, a, b, n, k, m)
}

/// Matmul for callers that *know* the lhs contains many structural zeros
/// (one-hot gathers, zero-padded im2col blocks): skips zero lhs entries.
/// Value-dependent flop order is fine here because both backends evaluate
/// each output row with the same code.
pub fn matmul_sparse_lhs(
    bk: &dyn Backend,
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
) -> Vec<f32> {
    matmul_impl::<true>(bk, a, b, n, k, m)
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

/// One task of [`matmul_impl`]: output rows `i0..` into `piece`. Rows go two
/// at a time — a pair has twice the independent add chains of one row, which
/// is what a latency-bound tile is short of — in tiles of `W2` columns; an
/// odd last row, or the only one (the decoder's `[1, D] · [D, |E|]`), goes
/// alone in tiles of `W1`. Both widths are what eight vector registers of
/// accumulators hold, so they double with the lane count.
#[inline(always)]
fn matmul_rows<const W2: usize, const W1: usize, const SKIP_ZERO_LHS: bool>(
    a: &[f32],
    b: &[f32],
    piece: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
) {
    let a_row = |r: usize| &a[(i0 + r) * k..(i0 + r + 1) * k];
    let rows = piece.len() / m;
    let mut pairs = piece.chunks_exact_mut(2 * m);
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
    piece: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
) {
    matmul_rows::<16, 32, SKIP_ZERO_LHS>(a, b, piece, i0, k, m)
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
    piece: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
) {
    matmul_rows::<32, 64, SKIP_ZERO_LHS>(a, b, piece, i0, k, m)
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
    bk: &dyn Backend,
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
) -> Vec<f32> {
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), k * m);
    let mut out = vec![0.0f32; n * m];
    let row_flops = (k * m).max(1);
    // An even count, so that only a task's last row can be a lone one.
    let rows_per_task = (MATMUL_TASK_FLOPS / row_flops).max(1).next_multiple_of(2);
    let avx2 = has_avx2();
    par_chunks(bk, &mut out, rows_per_task * m, |lo, piece| {
        let i0 = lo / m;
        if avx2 {
            // SAFETY: `avx2` is `is_x86_feature_detected!("avx2")` on this CPU,
            // which is all that calling an `avx2` target-feature function asks.
            #[cfg(target_arch = "x86_64")]
            return unsafe { matmul_rows_avx2::<SKIP_ZERO_LHS>(a, b, piece, i0, k, m) };
        }
        matmul_rows_baseline::<SKIP_ZERO_LHS>(a, b, piece, i0, k, m)
    });
    out
}

/// Transpose of a row-major `[r, c]` matrix into `[c, r]`.
pub fn transpose2(bk: &dyn Backend, x: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; r * c];
    let rows_per_task = (ROW_TASK_ELEMS / r.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * r, |lo, piece| {
        let j0 = lo / r.max(1);
        for (jr, o_row) in piece.chunks_mut(r).enumerate() {
            let j = j0 + jr;
            for (i, o) in o_row.iter_mut().enumerate() {
                *o = x[i * c + j];
            }
        }
    });
    out
}

/// Row-wise softmax of `[n, d]` logits (max-shifted).
pub fn softmax_rows(bk: &dyn Backend, x: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * d, |lo, piece| {
        let i0 = lo / d.max(1);
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let row = &x[(i0 + r) * d..(i0 + r + 1) * d];
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
    });
    out
}

/// Softmax backward: `dx = y * (g - Σ_row(g * y))`.
pub fn softmax_rows_bwd(bk: &dyn Backend, y: &[f32], g: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * d, |lo, piece| {
        let i0 = lo / d.max(1);
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let i = i0 + r;
            let yr = &y[i * d..(i + 1) * d];
            let gr = &g[i * d..(i + 1) * d];
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            for ((o, &yj), &gj) in o_row.iter_mut().zip(yr).zip(gr) {
                *o = yj * (gj - dot);
            }
        }
    });
    out
}

// ---------------------------------------------------------------- indexing

/// Gathers rows: `out[i] = x[idx[i]]` over `d`-column rows. Indices must be
/// pre-validated by the caller.
pub fn gather_rows(bk: &dyn Backend, x: &[f32], d: usize, idx: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; idx.len() * d];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * d, |lo, piece| {
        let r0 = lo / d.max(1);
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let src = idx[r0 + r];
            o_row.copy_from_slice(&x[src * d..(src + 1) * d]);
        }
    });
    out
}

/// Segmented scatter-add: adds row `r` of `src` (`[idx.len(), d]`) into row
/// `idx[r]` of a fresh `[n, d]` output. The output is partitioned into row
/// segments; each segment scans the full index list in ascending order, so
/// per-row accumulation order is index order no matter how many segments
/// (or threads) there are. Indices must be pre-validated (`idx[r] < n`).
pub fn scatter_add_rows(
    bk: &dyn Backend,
    src: &[f32],
    d: usize,
    idx: &[usize],
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    if n == 0 || idx.is_empty() {
        return out;
    }
    let n_segments = if src.len() < SCATTER_MIN_WORK {
        1
    } else {
        (bk.threads() * 2).clamp(1, SCATTER_MAX_SEGMENTS.min(n))
    };
    let rows_per_seg = n.div_ceil(n_segments);
    par_chunks(bk, &mut out, rows_per_seg * d, |lo, piece| {
        let row_lo = lo / d;
        let row_hi = row_lo + piece.len() / d;
        for (r, &i) in idx.iter().enumerate() {
            if i < row_lo || i >= row_hi {
                continue;
            }
            let dst = &mut piece[(i - row_lo) * d..(i - row_lo + 1) * d];
            let s = &src[r * d..(r + 1) * d];
            for (o, &v) in dst.iter_mut().zip(s) {
                *o += v;
            }
        }
    });
    out
}

// ------------------------------------------------------------ concatenation

/// Column-wise concatenation `[n, da] || [n, db] -> [n, da + db]`.
pub fn concat_cols(
    bk: &dyn Backend,
    a: &[f32],
    b: &[f32],
    n: usize,
    da: usize,
    db: usize,
) -> Vec<f32> {
    let d = da + db;
    let mut out = vec![0.0f32; n * d];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * d, |lo, piece| {
        let i0 = lo / d.max(1);
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let i = i0 + r;
            o_row[..da].copy_from_slice(&a[i * da..(i + 1) * da]);
            o_row[da..].copy_from_slice(&b[i * db..(i + 1) * db]);
        }
    });
    out
}

/// Backward of [`concat_cols`]: splits `g` (`[n, da + db]`) back into the
/// two column blocks.
pub fn split_cols(
    bk: &dyn Backend,
    g: &[f32],
    n: usize,
    da: usize,
    db: usize,
) -> (Vec<f32>, Vec<f32>) {
    let d = da + db;
    let mut ga = vec![0.0f32; n * da];
    let mut gb = vec![0.0f32; n * db];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_row_chunks2(
        bk,
        &mut ga,
        da,
        &mut gb,
        db,
        n,
        rows_per_task,
        |i0, rows, pa, pb| {
            for r in 0..rows {
                let row = &g[(i0 + r) * d..(i0 + r + 1) * d];
                pa[r * da..(r + 1) * da].copy_from_slice(&row[..da]);
                pb[r * db..(r + 1) * db].copy_from_slice(&row[da..]);
            }
        },
    );
    (ga, gb)
}

// ------------------------------------------------------------------ im2col

/// im2col for a width-3, zero-padded, 2-channel 1-D convolution (the
/// ConvTransE stem): `[b, d]` entity/relation rows -> `[b * d, 6]` windows.
pub fn im2col3(bk: &dyn Backend, e: &[f32], r: &[f32], b: usize, d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * d * 6];
    let batch_per_task = (ROW_TASK_ELEMS / (d * 6).max(1)).max(1);
    par_chunks(bk, &mut out, batch_per_task * d * 6, |lo, piece| {
        let b0 = lo / (d * 6).max(1);
        for (br, block) in piece.chunks_mut(d * 6).enumerate() {
            let bi = b0 + br;
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
    });
    out
}

/// Backward of [`im2col3`]: accumulates window gradients back onto the
/// entity and relation rows.
pub fn im2col3_bwd(bk: &dyn Backend, g: &[f32], b: usize, d: usize) -> (Vec<f32>, Vec<f32>) {
    let mut ge = vec![0.0f32; b * d];
    let mut gr = vec![0.0f32; b * d];
    let batch_per_task = (ROW_TASK_ELEMS / (d * 6).max(1)).max(1);
    par_row_chunks2(
        bk,
        &mut ge,
        d,
        &mut gr,
        d,
        b,
        batch_per_task,
        |b0, rows, pe, pr| {
            for br in 0..rows {
                let bi = b0 + br;
                let erow = &mut pe[br * d..(br + 1) * d];
                let rrow = &mut pr[br * d..(br + 1) * d];
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
        },
    );
    (ge, gr)
}

// ------------------------------------------------------------ fused losses

/// Cross-entropy forward: per-row `lse - logit[target]` losses (max-shifted
/// log-sum-exp), summed with the fixed reduction tree. Caller divides by N.
pub fn cross_entropy_fwd(
    bk: &dyn Backend,
    logits: &[f32],
    n: usize,
    c: usize,
    targets: &[usize],
) -> f32 {
    let mut per_row = vec![0.0f32; n];
    let rows_per_task = (ROW_TASK_ELEMS / c.max(1)).max(1);
    par_chunks(bk, &mut per_row, rows_per_task, |i0, piece| {
        for (r, o) in piece.iter_mut().enumerate() {
            let i = i0 + r;
            let row = &logits[i * c..(i + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            *o = lse - row[targets[i]];
        }
    });
    sum(bk, &per_row)
}

/// Cross-entropy backward: `(softmax(logits) - onehot) * scale` per row.
pub fn cross_entropy_bwd(
    bk: &dyn Backend,
    logits: &[f32],
    n: usize,
    c: usize,
    targets: &[usize],
    scale: f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * c];
    let rows_per_task = (ROW_TASK_ELEMS / c.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * c, |lo, piece| {
        let i0 = lo / c.max(1);
        for (r, o_row) in piece.chunks_mut(c).enumerate() {
            let i = i0 + r;
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
    });
    out
}

/// Row-wise L2 normalization forward: returns `(y, norms)` where
/// `y[i] = x[i] / max(‖x[i]‖, 1e-8)`.
pub fn l2_normalize_rows_fwd(
    bk: &dyn Backend,
    x: &[f32],
    n: usize,
    d: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut out = vec![0.0f32; n * d];
    let mut norms = vec![0.0f32; n];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_row_chunks2(
        bk,
        &mut out,
        d,
        &mut norms,
        1,
        n,
        rows_per_task,
        |i0, rows, po, pn| {
            for (r, nm) in pn.iter_mut().enumerate().take(rows) {
                let i = i0 + r;
                let row = &x[i * d..(i + 1) * d];
                let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt().max(1e-8);
                *nm = norm;
                for (o, &v) in po[r * d..(r + 1) * d].iter_mut().zip(row) {
                    *o = v / norm;
                }
            }
        },
    );
    (out, norms)
}

/// L2-normalize backward: `grad_x = (g - (g·y) y) / ‖x‖` per row.
pub fn l2_normalize_rows_bwd(
    bk: &dyn Backend,
    y: &[f32],
    g: &[f32],
    norms: &[f32],
    n: usize,
    d: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * d];
    let rows_per_task = (ROW_TASK_ELEMS / d.max(1)).max(1);
    par_chunks(bk, &mut out, rows_per_task * d, |lo, piece| {
        let i0 = lo / d.max(1);
        for (r, o_row) in piece.chunks_mut(d).enumerate() {
            let i = i0 + r;
            let yr = &y[i * d..(i + 1) * d];
            let gr = &g[i * d..(i + 1) * d];
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            for ((o, &gj), &yj) in o_row.iter_mut().zip(gr).zip(yr) {
                *o = (gj - dot * yj) / norms[i];
            }
        }
    });
    out
}

/// BCE-with-logits forward: Σ `max(x,0) - x*y + ln(1 + e^-|x|)` via the
/// fixed reduction tree (partials per `REDUCE_CHUNK`). Caller divides by N.
pub fn bce_fwd(bk: &dyn Backend, x: &[f32], y: &[f32]) -> f32 {
    let n_parts = x.len().div_ceil(REDUCE_CHUNK);
    let bce = |xi: f32, yi: f32| xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln();
    let fold = |start: usize, end: usize| {
        let mut acc = 0.0f32;
        for (&xi, &yi) in x[start..end].iter().zip(&y[start..end]) {
            acc += bce(xi, yi);
        }
        acc
    };
    if n_parts <= PARTIALS_PER_TASK {
        let mut acc = 0.0f32;
        for p in 0..n_parts {
            let start = p * REDUCE_CHUNK;
            acc += fold(start, (start + REDUCE_CHUNK).min(x.len()));
        }
        return acc;
    }
    let mut partials = vec![0.0f32; n_parts];
    par_chunks(bk, &mut partials, PARTIALS_PER_TASK, |lo, piece| {
        for (pi, p) in piece.iter_mut().enumerate() {
            let start = (lo + pi) * REDUCE_CHUNK;
            *p = fold(start, (start + REDUCE_CHUNK).min(x.len()));
        }
    });
    let mut acc = 0.0f32;
    for p in partials {
        acc += p;
    }
    acc
}

/// BCE-with-logits backward: `scale * (σ(x) - y)` elementwise.
pub fn bce_bwd(bk: &dyn Backend, x: &[f32], y: &[f32], scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    par_chunks(bk, &mut out, ELEM_CHUNK, |lo, piece| {
        let len = piece.len();
        for ((o, &xi), &yi) in piece.iter_mut().zip(&x[lo..lo + len]).zip(&y[lo..lo + len]) {
            *o = scale * (1.0 / (1.0 + (-xi).exp()) - yi);
        }
    });
    out
}

// --------------------------------------------------------------- optimizer

/// Fused Adam update over one parameter: updates weights and both moment
/// estimates in place. `bc1`/`bc2` are the bias-correction denominators.
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    bk: &dyn Backend,
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
    let n = w.len();
    if n == 0 {
        return;
    }
    let (pw, pm, pv) = (
        MutPtr(w.as_mut_ptr()),
        MutPtr(m.as_mut_ptr()),
        MutPtr(v.as_mut_ptr()),
    );
    bk.run_tasks(n.div_ceil(ELEM_CHUNK), &|t| {
        let lo = t * ELEM_CHUNK;
        let hi = (lo + ELEM_CHUNK).min(n);
        // SAFETY: disjoint [lo, hi) ranges of three live allocations.
        let (ws, ms, vs) = unsafe {
            (
                std::slice::from_raw_parts_mut(pw.get().add(lo), hi - lo),
                std::slice::from_raw_parts_mut(pm.get().add(lo), hi - lo),
                std::slice::from_raw_parts_mut(pv.get().add(lo), hi - lo),
            )
        };
        for (((wi, &gi), mi), vi) in ws
            .iter_mut()
            .zip(&g[lo..hi])
            .zip(ms.iter_mut())
            .zip(vs.iter_mut())
        {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *wi -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * *wi);
        }
    });
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
                        matmul_rows_baseline::<false>(&a, &b, &mut base[0], 0, k, m);
                        matmul_rows_baseline::<true>(&a, &b, &mut base[1], 0, k, m);
                        // SAFETY: `has_avx2()` was checked above.
                        unsafe {
                            matmul_rows_avx2::<false>(&a, &b, &mut wide[0], 0, k, m);
                            matmul_rows_avx2::<true>(&a, &b, &mut wide[1], 0, k, m);
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
