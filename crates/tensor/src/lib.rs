//! # logcl-tensor
//!
//! A small, self-contained dense-tensor library with reverse-mode automatic
//! differentiation, written for the Rust reproduction of *LogCL* (ICDE 2024).
//!
//! The crate provides exactly the machinery a graph-neural TKG model needs:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor of rank ≤ 3 with shape
//!   checking, broadcasting arithmetic, matrix multiplication, reductions and
//!   ranking helpers (used at evaluation time where no gradients are needed).
//! * [`Var`] — a reference-counted autograd handle wrapping a `Tensor`.
//!   Operations on `Var`s build a dynamic computation graph; calling
//!   [`Var::backward`] runs reverse-mode differentiation and accumulates
//!   gradients into every reachable trainable leaf. Inside
//!   [`autograd::no_grad`] the same operations record nothing (inference).
//! * [`nn`] — layers (`Linear`, `Embedding`, `Mlp`, dropout) and parameter
//!   initialisation.
//! * [`optim`] — `Adam` and `Sgd` optimizers with gradient clipping.
//! * [`serialize`] — JSON checkpointing of named parameter sets.
//! * [`kernels`] — every inner loop, run on the calling thread with a fixed
//!   per-element flop order.
//!
//! The design goal is correctness and debuggability over raw speed: every op
//! has a straightforward reference implementation and a gradient that is
//! verified against finite differences in the test-suite. Results depend on
//! the inputs' bits alone (see [`kernels`] for the determinism contract).
//!
//! ## Example
//!
//! ```
//! use logcl_tensor::{Tensor, Var};
//!
//! let w = Var::param(Tensor::from_vec(vec![2.0, -1.0], &[2, 1]));
//! let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
//! let y = x.matmul(&w).sum(); // scalar
//! y.backward();
//! let g = w.grad().expect("gradient");
//! assert_eq!(g.shape(), &[2, 1]);
//! assert_eq!(g.data(), &[4.0, 6.0]); // column sums of x
//! ```

pub mod autograd;
pub mod kernels;
pub mod nn;
pub mod optim;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod tensor;

pub use autograd::Var;
pub use rng::Rng;
pub use tensor::Tensor;

/// Numerical tolerance used across the crate's tests and stability guards.
pub const EPS: f32 = 1e-6;
