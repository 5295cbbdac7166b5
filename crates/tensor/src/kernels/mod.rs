//! The kernels: every inner loop of the tensor engine.
//!
//! This module owns all compute kernels — matmul, elementwise maps,
//! reductions, softmax, gather/scatter-rows and the fused forward/backward
//! kernels used by autograd — in [`ops`]. [`Tensor`](crate::Tensor), `Var`
//! and `nn` contain *no* loops of their own; they validate shapes and
//! dispatch here.
//!
//! # Determinism contract
//!
//! Every kernel computes each output element with a fixed, input-independent
//! flop order, so a result is a function of the inputs' bits alone:
//!
//! * Full reductions (`sum`, `sum_sq`, loss totals) use a **fixed-shape
//!   reduction tree**: the input is split into [`REDUCE_CHUNK`]-element
//!   chunks whose partial sums are folded left-to-right. The chunk size is a
//!   compile-time constant.
//! * Scatter-add accumulates each output row in index order.
//! * Every matmul element is one accumulator from `+0.0` over `k` ascending,
//!   a multiply then an add per step (no fused multiply-add, no split sum).
//!   A kernel may choose *which* elements — columns and rows — it computes
//!   together, never how one is summed, so results do not depend on tile
//!   shape either.
//! * A kernel may be compiled for a wider vector unit: a lane-wise multiply
//!   and a lane-wise add are the same IEEE operations at four lanes and at
//!   eight, and nothing contracts the two into a fused multiply-add
//!   (`f32::mul_add`, `-C target-cpu`/`target-feature=+fma` build flags and
//!   fast-math stay out of this crate for that reason). The matmul tile
//!   exists in a baseline and an AVX2 copy of one source, picked per call
//!   from what the CPU reports ([`isa`] says which).
//! * Each elementwise expression is written once (`unary_eval`,
//!   `binary_eval` in [`ops`]). The kernels pick the variant once per call
//!   and run a loop compiled for it, so the arithmetic variants vectorise;
//!   the `libm` ones (`tanh`, `exp`, `ln`, `cos`, `sin`) stay scalar calls,
//!   because any other evaluation of them would move bits.
//!
//! # Threads
//!
//! Every kernel runs on the calling thread. A server already computes each
//! request on its own connection thread, and a kernel pool under those
//! forwards made them queue on each other; for training one bought ≈ 3 %
//! on a 2-vCPU host. A parallel backend would have to keep the contract
//! above: split each output into disjoint regions computed with the same
//! per-element order.

pub mod ops;

pub use ops::{isa, Binary, Unary, REDUCE_CHUNK};

/// The kernels' backend: every loop on the calling thread, in order. The
/// only one there is; [`backend`] hands it out and [`ops::matmul`] takes it
/// because the benchmark harness names both.
pub struct Serial;

/// The process's kernel backend.
pub fn backend() -> &'static Serial {
    &Serial
}

/// Threads the kernels run on: always 1 (the benchmark harness prints it in
/// its run header).
pub fn current_threads() -> usize {
    1
}
