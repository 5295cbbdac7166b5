//! The raw dense tensor type: storage, construction and gradient-free math.
//!
//! [`Tensor`] is deliberately simple — a shared `Vec<f32>` plus a shape —
//! and all operations are eager and allocate their result. Storage is
//! copy-on-write: a clone shares the buffer, and the first write through
//! either handle copies it, so a frozen snapshot of a model's tensors costs
//! a reference count and is never changed by a later optimizer step. The autograd layer
//! ([`crate::autograd`]) builds on these primitives; evaluation-time code
//! (ranking, metric computation) uses them directly.
//!
//! No compute loop lives here: every op validates shapes and dispatches to
//! [`crate::kernels`].

use std::sync::Arc;

use crate::kernels::{self, ops, Binary, Unary};
use crate::rng::Rng;
use crate::shape;

/// A dense, row-major `f32` tensor of rank ≤ 3.
///
/// ```
/// use logcl_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b).data(), a.data());
/// assert_eq!(a.add(&Tensor::scalar(1.0)).data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    /// `Arc<Vec<_>>` rather than `Arc<[_]>`: an op's fresh result moves into
    /// its `Arc` without a copy.
    data: Arc<Vec<f32>>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{}, {}, ...])", self.data[0], self.data[1])
        }
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Builds a tensor from raw data; `data.len()` must equal the product of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        shape::validate(shape);
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data: Arc::new(data),
        }
    }

    /// An all-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        shape::validate(shape);
        Self {
            shape: shape.to_vec(),
            data: Arc::new(vec![0.0; shape::numel(shape)]),
        }
    }

    /// An all-one tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        shape::validate(shape);
        Self {
            shape: shape.to_vec(),
            data: Arc::new(vec![value; shape::numel(shape)]),
        }
    }

    /// A rank-1 single-element tensor holding `value` (the crate's scalar
    /// representation).
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![1],
            data: Arc::new(vec![value]),
        }
    }

    /// Standard-normal entries scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        shape::validate(shape);
        let data = (0..shape::numel(shape))
            .map(|_| rng.normal() * std)
            .collect();
        Self {
            shape: shape.to_vec(),
            data: Arc::new(data),
        }
    }

    /// Uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        shape::validate(shape);
        let data = (0..shape::numel(shape))
            .map(|_| rng.uniform(lo, hi))
            .collect();
        Self {
            shape: shape.to_vec(),
            data: Arc::new(data),
        }
    }

    /// `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Self {
            shape: vec![n],
            data: Arc::new((0..n).map(|i| i as f32).collect()),
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let data = (0..n * n)
            .map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 })
            .collect();
        Self {
            shape: vec![n, n],
            data: Arc::new(data),
        }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    // logcl-allow(L001): sanctioned accessor seam — hands the buffer *to* the kernel boundary; no compute happens here
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its buffer (a copy when another
    /// handle still shares it).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The single value of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Element at 2-D position `(i, j)`.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Sets element at 2-D position `(i, j)`.
    #[inline]
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        let c = self.shape[1];
        Arc::make_mut(&mut self.data)[i * c + j] = v;
    }

    /// Borrow of row `i` of a rank-2 tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(
            self.rank(),
            2,
            "row() requires rank-2, got {:?}",
            self.shape
        );
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable borrow of row `i` of a rank-2 tensor.
    // logcl-allow(L001): sanctioned accessor seam — hands the buffer *to* the kernel boundary; no compute happens here
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(
            self.rank(),
            2,
            "row_mut() requires rank-2, got {:?}",
            self.shape
        );
        let c = self.shape[1];
        &mut Arc::make_mut(&mut self.data)[i * c..(i + 1) * c]
    }

    // ------------------------------------------------------------- reshapes

    /// Returns a tensor with the same data and a new shape of identical
    /// element count; the two share storage until either is written.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            shape::numel(shape),
            self.numel(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        shape::validate(shape);
        Tensor {
            shape: shape.to_vec(),
            data: Arc::clone(&self.data),
        }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "transpose2 requires rank-2, got {:?}",
            self.shape
        );
        let (r, c) = (self.shape[0], self.shape[1]);
        let out = ops::transpose2(&self.data, r, c);
        Tensor::from_vec(out, &[c, r])
    }

    // ------------------------------------------------------- elementwise ops

    /// Applies a named unary kernel elementwise.
    pub fn unary(&self, op: Unary) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(ops::unary(op, &self.data)),
        }
    }

    /// In-place variant of [`Tensor::unary`].
    pub fn unary_inplace(&mut self, op: Unary) {
        ops::unary_inplace(op, self.data_mut());
    }

    /// Applies a named binary kernel with broadcasting.
    pub fn binary(&self, other: &Tensor, op: Binary) -> Tensor {
        if self.shape == other.shape {
            return Tensor {
                shape: self.shape.clone(),
                data: Arc::new(ops::binary(op, &self.data, &other.data)),
            };
        }
        let out_shape = shape::broadcast_shape(&self.shape, &other.shape);
        let data = ops::binary_bcast(
            op,
            &self.data,
            &self.shape,
            &other.data,
            &other.shape,
            &out_shape,
        );
        Tensor {
            shape: out_shape,
            data: Arc::new(data),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    ///
    /// Arbitrary closures run sequentially (they cannot cross threads);
    /// prefer [`Tensor::unary`] for the named hot-path ops.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(ops::map_fallback(&f, &self.data)),
        }
    }

    /// In-place elementwise update.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        ops::map_fallback_inplace(&f, self.data_mut());
    }

    /// Broadcasting binary op. The result has the broadcast shape of the two
    /// inputs. Arbitrary closures run sequentially; prefer
    /// [`Tensor::binary`] for the named hot-path ops.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let out_shape = if self.shape == other.shape {
            self.shape.clone()
        } else {
            shape::broadcast_shape(&self.shape, &other.shape)
        };
        let data = ops::zip_fallback(
            &f,
            &self.data,
            &self.shape,
            &other.data,
            &other.shape,
            &out_shape,
        );
        Tensor {
            shape: out_shape,
            data: Arc::new(data),
        }
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary(other, Binary::Add)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary(other, Binary::Sub)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary(other, Binary::Mul)
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary(other, Binary::Div)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.unary(Unary::Scale(s))
    }

    /// `self += other` where shapes match exactly.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        ops::add_assign(self.data_mut(), &other.data);
    }

    /// `self += s * other` (axpy) where shapes match exactly.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        ops::axpy(self.data_mut(), s, &other.data);
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements (fixed-shape reduction tree).
    pub fn sum_all(&self) -> f32 {
        ops::sum(&self.data)
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Sums `self` down to `target` shape (inverse of broadcasting); used by
    /// gradient propagation.
    pub fn reduce_to(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        assert!(
            shape::reducible(&self.shape, target),
            "cannot reduce {:?} to {:?}",
            self.shape,
            target
        );
        let data = ops::reduce_to(&self.data, &self.shape, target);
        Tensor::from_vec(data, target)
    }

    /// Column-wise mean of a rank-2 tensor: `[N, D] -> [D]`.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = ops::col_sums(&self.data, n, d);
        if n > 0 {
            ops::unary_inplace(Unary::Scale(1.0 / n as f32), &mut out);
        }
        Tensor::from_vec(out, &[d])
    }

    /// Row-wise maximum of a rank-2 tensor: `[N, D] -> [N]`.
    pub fn max_per_row(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (n, d) = (self.shape[0], self.shape[1]);
        let out = ops::max_per_row(&self.data, n, d);
        Tensor::from_vec(out, &[n])
    }

    // --------------------------------------------------------------- linalg

    /// Matrix product of rank-2 tensors: `[N, K] x [K, M] -> [N, M]`.
    ///
    /// Dense kernel with a fixed flop order (no value-dependent skips); use
    /// [`Tensor::matmul_sparse_lhs`] when the lhs is known to be sparse.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (n, k, m) = self.matmul_dims(other);
        let out = ops::matmul(kernels::backend(), &self.data, &other.data, n, k, m);
        Tensor::from_vec(out, &[n, m])
    }

    /// Matrix product for a lhs with many structural zeros (one-hot gathers,
    /// zero-padded im2col windows): skips zero lhs entries. Same result as
    /// [`Tensor::matmul`] up to floating-point summation order.
    pub fn matmul_sparse_lhs(&self, other: &Tensor) -> Tensor {
        let (n, k, m) = self.matmul_dims(other);
        let out = ops::matmul_sparse_lhs(&self.data, &other.data, n, k, m);
        Tensor::from_vec(out, &[n, m])
    }

    fn matmul_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be rank-2, got {:?}",
            self.shape
        );
        assert_eq!(
            other.rank(),
            2,
            "matmul rhs must be rank-2, got {:?}",
            other.shape
        );
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        (n, k, m)
    }

    /// Frobenius / L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        ops::sum_sq(&self.data).sqrt()
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (n, d) = (self.shape[0], self.shape[1]);
        let out = ops::softmax_rows(&self.data, n, d);
        Tensor::from_vec(out, &[n, d])
    }

    // ------------------------------------------------------------- indexing

    /// Gathers rows of a rank-2 tensor: `out[i] = self[idx[i]]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        assert_eq!(self.rank(), 2);
        let d = self.shape[1];
        if let Some(&bad) = idx.iter().find(|&&i| i >= self.shape[0]) {
            // logcl-allow(L002): bounds contract, same class as the adjacent asserts — a bad index is a caller bug, not a representable state
            panic!("gather index {bad} out of bounds {}", self.shape[0]);
        }
        let data = ops::gather_rows(&self.data, d, idx);
        Tensor::from_vec(data, &[idx.len(), d])
    }

    /// Scatter-adds rows of `self` (`[M, D]`) into a fresh `[n, D]` tensor at
    /// row positions `idx` (segmented, deterministic: per-row accumulation
    /// order is always index order).
    pub fn scatter_add_rows(&self, idx: &[usize], n: usize) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(idx.len(), self.shape[0], "scatter index count mismatch");
        if let Some(&bad) = idx.iter().find(|&&i| i >= n) {
            // logcl-allow(L002): bounds contract, same class as the adjacent asserts — a bad index is a caller bug, not a representable state
            panic!("scatter index {bad} out of bounds {n}");
        }
        let d = self.shape[1];
        let data = ops::scatter_add_rows(&self.data, d, idx, n);
        Tensor::from_vec(data, &[n, d])
    }

    // -------------------------------------------------------------- ranking

    /// Indices of the `k` largest entries of a rank-1 tensor, descending.
    pub fn topk(&self, k: usize) -> Vec<usize> {
        assert_eq!(self.rank(), 1);
        ops::topk(&self.data, k)
    }

    /// 1-based rank of `target` in a score vector under "average over ties of
    /// strictly-greater + 1" semantics, ignoring indices in `masked` (treated
    /// as removed candidates).
    pub fn rank_of(&self, target: usize, masked: &[usize]) -> usize {
        assert_eq!(self.rank(), 1);
        ops::rank_of(&self.data, target, masked)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        ops::all_finite(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn broadcasting_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcasting_mul_column() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]);
        let c = a.mul(&b);
        assert_eq!(c.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn broadcasting_scalar() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(5.0);
        assert_eq!(a.add(&s).data(), &[6.0, 7.0]);
        assert_eq!(s.sub(&a).data(), &[4.0, 3.0]);
    }

    #[test]
    fn matmul_basic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn matmul_sparse_lhs_matches_dense() {
        // One-hot-ish lhs: the sparse kernel must agree exactly with the
        // dense kernel here (products with zero contribute exact zeros).
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0, 0.0, 2.0], &[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(a.matmul_sparse_lhs(&b).data(), a.matmul(&b).data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().shape(), &[3, 2]);
        assert_eq!(a.transpose2().at2(2, 1), 6.0);
    }

    #[test]
    fn reduce_to_inverts_broadcast() {
        let g = Tensor::ones(&[4, 3]);
        assert_eq!(g.reduce_to(&[3]).data(), &[4.0, 4.0, 4.0]);
        assert_eq!(g.reduce_to(&[4, 1]).data(), &[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(g.reduce_to(&[1]).data(), &[12.0]);
    }

    #[test]
    fn softmax_rows_normalises() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = a.softmax_rows();
        let r0: f32 = s.row(0).iter().sum();
        let r1: f32 = s.row(1).iter().sum();
        assert!((r0 - 1.0).abs() < 1e-6 && (r1 - 1.0).abs() < 1e-6);
        assert!((s.at2(1, 0) - 1.0 / 3.0).abs() < 1e-6);
        assert!(s.at2(0, 2) > s.at2(0, 1) && s.at2(0, 1) > s.at2(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[1, 3]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.data(), &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn topk_orders_descending() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.9], &[4]);
        assert_eq!(t.topk(3), vec![1, 3, 2]); // tie broken by index
    }

    #[test]
    fn rank_of_with_mask() {
        let t = Tensor::from_vec(vec![0.9, 0.8, 0.7, 0.6], &[4]);
        assert_eq!(t.rank_of(2, &[]), 3);
        assert_eq!(t.rank_of(2, &[0]), 2); // best candidate filtered out
        assert_eq!(t.rank_of(2, &[2]), 3); // target itself never masked
    }

    #[test]
    fn mean_rows_basic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.mean_rows().data(), &[2.0, 3.0]);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.data(), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn clones_share_storage_until_one_is_written() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut b = a.clone();
        let view = a.reshape(&[4]);
        assert_eq!(b.data().as_ptr(), a.data().as_ptr());
        assert_eq!(view.data().as_ptr(), a.data().as_ptr());
        b.set2(0, 1, 9.0);
        assert_ne!(b.data().as_ptr(), a.data().as_ptr(), "the write copied");
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0], "the original is untouched");
        assert_eq!(b.data(), &[1.0, 9.0, 3.0, 4.0]);
        let written = b.data().as_ptr();
        b.row_mut(1)[0] = 7.0;
        b.axpy(1.0, &Tensor::ones(&[2, 2]));
        assert_eq!(b.data().as_ptr(), written, "a sole owner writes in place");
        assert_eq!(view.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.into_vec(), vec![2.0, 10.0, 8.0, 5.0]);
    }
}
