//! Reverse-mode automatic differentiation.
//!
//! A [`Var`] is a cheap reference-counted handle to a node in a dynamically
//! built computation graph. Every operation records (a) its output value,
//! (b) handles to its parents, and (c) a backward closure that converts the
//! gradient w.r.t. the output into gradients w.r.t. each parent.
//!
//! Calling [`Var::backward`] on a scalar output topologically sorts the
//! reachable subgraph and accumulates gradients into every *trainable* leaf
//! ([`Var::param`]). Graphs are freed automatically when the last handle to
//! the output is dropped; parameters survive across steps because the model
//! owns handles to them.
//!
//! Recording is a property of the scope, not of the model: under
//! [`no_grad`] an operation returns a plain constant, and anywhere a node no
//! gradient will flow through keeps neither parents nor closure — so a
//! forward that will never see `backward()` holds only the values it still
//! uses.

mod index;
mod linalg;
mod loss;
mod ops;

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use crate::tensor::Tensor;

thread_local! {
    /// Whether operations on this thread are inside a [`no_grad`] scope.
    static NO_GRAD: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` without recording the autograd graph on this thread: every
/// operation inside computes the same value with the same kernels and
/// returns it as a constant leaf, so `backward()` can never reach through it
/// and each intermediate is freed at its last use. Scopes nest; the previous
/// state comes back when `f` returns or unwinds.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NO_GRAD.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(NO_GRAD.with(|flag| flag.replace(true)));
    f()
}

/// Gradient function: `(grad_out, out_value, parents) -> grad per parent`.
///
/// A `None` entry means "no gradient flows to this parent" (e.g. an index
/// tensor or a detached input).
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &Tensor, &[Var]) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    /// Trainable leaf: gradients are retained here after `backward()`.
    trainable: bool,
    /// Whether this node is on a path from a trainable leaf (gradients must
    /// flow through it).
    needs_grad: bool,
}

impl Drop for Node {
    /// Iterative drop: a long op chain (e.g. a recurrent encoder unrolled
    /// over many snapshots) would otherwise recurse through `Rc<Node>` drops
    /// and overflow the stack.
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(parent) = stack.pop() {
            let Var { node } = parent;
            if let Some(mut inner) = Rc::into_inner(node) {
                stack.append(&mut std::mem::take(&mut inner.parents));
            }
        }
    }
}

/// An autograd variable: a shared handle to a tensor plus its position in the
/// computation graph.
#[derive(Clone)]
pub struct Var {
    pub(crate) node: Rc<Node>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Var(shape={:?}, trainable={}, needs_grad={})",
            self.node.value.borrow().shape(),
            self.node.trainable,
            self.node.needs_grad
        )
    }
}

impl Var {
    // --------------------------------------------------------------- leaves

    /// A trainable leaf. Gradients accumulate here during `backward()`.
    pub fn param(value: Tensor) -> Var {
        Var {
            node: Rc::new(Node {
                value: RefCell::new(value),
                grad: RefCell::new(None),
                parents: Vec::new(),
                backward: None,
                trainable: true,
                needs_grad: true,
            }),
        }
    }

    /// A non-trainable leaf (input data); no gradient is retained.
    pub fn constant(value: Tensor) -> Var {
        Var {
            node: Rc::new(Node {
                value: RefCell::new(value),
                grad: RefCell::new(None),
                parents: Vec::new(),
                backward: None,
                trainable: false,
                needs_grad: false,
            }),
        }
    }

    /// Convenience: a constant scalar.
    pub fn scalar(v: f32) -> Var {
        Var::constant(Tensor::scalar(v))
    }

    /// Internal: the result of an op — an interior node when a gradient can
    /// flow through it, otherwise (inside [`no_grad`], or with no parent on a
    /// path from a trainable leaf) a constant that keeps nothing alive.
    pub(crate) fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        if NO_GRAD.with(Cell::get) || !parents.iter().any(|p| p.node.needs_grad) {
            return Var::constant(value);
        }
        Var {
            node: Rc::new(Node {
                value: RefCell::new(value),
                grad: RefCell::new(None),
                parents,
                backward: Some(backward),
                trainable: false,
                needs_grad: true,
            }),
        }
    }

    // ------------------------------------------------------------ accessors

    /// Borrow of the current value.
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.node.value.borrow()
    }

    /// Clone of the current value.
    pub fn to_tensor(&self) -> Tensor {
        self.node.value.borrow().clone()
    }

    /// Shape of the current value.
    pub fn shape(&self) -> Vec<usize> {
        self.node.value.borrow().shape().to_vec()
    }

    /// Scalar value of a one-element variable.
    pub fn item(&self) -> f32 {
        self.node.value.borrow().item()
    }

    /// Whether this is a trainable leaf.
    pub fn is_param(&self) -> bool {
        self.node.trainable
    }

    /// Whether nothing was recorded behind this variable: a parameter, a
    /// constant, or the result of an op no gradient flows through.
    pub fn is_leaf(&self) -> bool {
        self.node.parents.is_empty()
    }

    /// Accumulated gradient of a trainable leaf (if `backward` ran).
    pub fn grad(&self) -> Option<Tensor> {
        self.node.grad.borrow().clone()
    }

    /// Clears the stored gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Replaces the stored gradient (used by gradient clipping).
    pub(crate) fn set_grad(&self, g: Tensor) {
        *self.node.grad.borrow_mut() = Some(g);
    }

    /// Overwrites the value in place (used by optimizers; shape must match).
    pub fn set_value(&self, value: Tensor) {
        let mut v = self.node.value.borrow_mut();
        assert_eq!(v.shape(), value.shape(), "set_value must preserve shape");
        *v = value;
    }

    /// Applies `f` to the value in place (used by optimizers and noise
    /// injection).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.node.value.borrow_mut());
    }

    /// A new constant leaf sharing this variable's current value; gradients
    /// do not flow through it.
    pub fn detach(&self) -> Var {
        Var::constant(self.to_tensor())
    }

    // -------------------------------------------------------------- engine

    /// Runs reverse-mode differentiation from this (scalar) output,
    /// accumulating gradients into every reachable trainable leaf.
    pub fn backward(&self) {
        assert_eq!(
            self.node.value.borrow().numel(),
            1,
            "backward() requires a scalar output, got shape {:?}",
            self.node.value.borrow().shape()
        );
        self.backward_with(Tensor::ones(self.node.value.borrow().shape()));
    }

    /// Runs backward with an explicit seed gradient (same shape as the
    /// output value).
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.node.value.borrow().shape(),
            "seed gradient shape mismatch"
        );
        // Topological order over the needs_grad subgraph.
        let order = topo_order(self);
        // Transient gradient accumulation keyed by node pointer.
        #[expect(
            clippy::disallowed_types,
            reason = "lookup-only map (never iterated) — traversal order comes from `order`, so hash order cannot leak into results"
        )]
        let mut grads: std::collections::HashMap<*const Node, Tensor> =
            std::collections::HashMap::with_capacity(order.len());
        grads.insert(Rc::as_ptr(&self.node), seed);

        for var in order.iter().rev() {
            let key = Rc::as_ptr(&var.node);
            let Some(grad_out) = grads.remove(&key) else {
                continue;
            };
            if var.node.trainable {
                let mut slot = var.node.grad.borrow_mut();
                match slot.as_mut() {
                    Some(g) => g.add_assign(&grad_out),
                    None => *slot = Some(grad_out.clone()),
                }
            }
            if let Some(back) = &var.node.backward {
                let out_val = var.node.value.borrow();
                let parent_grads = back(&grad_out, &out_val, &var.node.parents);
                drop(out_val);
                assert_eq!(
                    parent_grads.len(),
                    var.node.parents.len(),
                    "backward fn returned wrong number of gradients"
                );
                for (parent, g) in var.node.parents.iter().zip(parent_grads) {
                    let (Some(g), true) = (g, parent.node.needs_grad) else {
                        continue;
                    };
                    let pkey = Rc::as_ptr(&parent.node);
                    match grads.get_mut(&pkey) {
                        Some(acc) => acc.add_assign(&g),
                        None => {
                            grads.insert(pkey, g);
                        }
                    }
                }
            }
        }
    }
}

/// Iterative DFS producing a topological order (parents before children) of
/// the `needs_grad` subgraph rooted at `root`.
fn topo_order(root: &Var) -> Vec<Var> {
    let mut order: Vec<Var> = Vec::new();
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only visited-set (never iterated) — order comes from the DFS stack, so hash order cannot leak into results"
    )]
    let mut state: std::collections::HashMap<*const Node, bool> = std::collections::HashMap::new(); // false=open, true=done
    let mut stack: Vec<(Var, usize)> = vec![(root.clone(), 0)];
    while let Some((var, child_idx)) = stack.pop() {
        let key = Rc::as_ptr(&var.node);
        if child_idx == 0 {
            match state.get(&key) {
                Some(_) => continue, // already visited (or in progress via another path)
                None => {
                    state.insert(key, false);
                }
            }
        }
        // Find the next parent that needs gradients.
        let parents = &var.node.parents;
        let mut i = child_idx;
        while i < parents.len() && !parents[i].node.needs_grad {
            i += 1;
        }
        if i < parents.len() {
            let parent = parents[i].clone();
            stack.push((var, i + 1));
            let pkey = Rc::as_ptr(&parent.node);
            if !state.contains_key(&pkey) {
                stack.push((parent, 0));
            }
            continue;
        }
        state.insert(key, true);
        order.push(var);
    }
    order
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient verification used across op tests.

    use super::*;

    /// Checks the analytic gradient of `f` w.r.t. every input against central
    /// finite differences.
    pub fn check<F>(inputs: &[Tensor], f: F, tol: f32)
    where
        F: Fn(&[Var]) -> Var,
    {
        let vars: Vec<Var> = inputs.iter().cloned().map(Var::param).collect();
        let out = f(&vars);
        assert_eq!(out.shape(), vec![1], "gradcheck requires scalar output");
        out.backward();
        let analytic: Vec<Tensor> = vars
            .iter()
            .map(|v| v.grad().unwrap_or_else(|| Tensor::zeros(&v.shape())))
            .collect();

        let h = 1e-2f32;
        for (pi, input) in inputs.iter().enumerate() {
            for ei in 0..input.numel() {
                let eval = |delta: f32| {
                    let perturbed: Vec<Var> = inputs.iter().cloned().map(Var::param).collect();
                    perturbed[pi].update_value(|t| t.data_mut()[ei] += delta);
                    f(&perturbed).item()
                };
                let numeric = (eval(h) - eval(-h)) / (2.0 * h);
                let got = analytic[pi].data()[ei];
                let denom = 1.0f32.max(numeric.abs()).max(got.abs());
                assert!(
                    (numeric - got).abs() / denom < tol,
                    "grad mismatch input {pi} elem {ei}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_accumulates_gradient() {
        let x = Var::param(Tensor::scalar(3.0));
        let y = x.mul(&x); // x^2
        let z = y.sum();
        z.backward();
        assert!((x.grad().unwrap().item() - 6.0).abs() < 1e-5);
        // Second backward on a fresh graph accumulates.
        let z2 = x.mul(&x).sum();
        z2.backward();
        assert!((x.grad().unwrap().item() - 12.0).abs() < 1e-5);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn constants_get_no_gradient() {
        let x = Var::constant(Tensor::scalar(3.0));
        let y = x.mul(&x).sum();
        y.backward();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_sums_paths() {
        // z = x*x + x*x => dz/dx = 4x
        let x = Var::param(Tensor::scalar(2.0));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let z = a.add(&b).sum();
        z.backward();
        assert!((x.grad().unwrap().item() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn shared_subexpression_counted_once_per_use() {
        // y = (x*x); z = y + y => dz/dx = 4x
        let x = Var::param(Tensor::scalar(3.0));
        let y = x.mul(&x);
        let z = y.add(&y).sum();
        z.backward();
        assert!((x.grad().unwrap().item() - 12.0).abs() < 1e-5);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Var::param(Tensor::scalar(2.0));
        let y = x.mul(&x).detach();
        let z = y.mul(&x).sum(); // only the direct x factor is differentiated
        z.backward();
        assert!((x.grad().unwrap().item() - 4.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "requires a scalar output")]
    fn backward_on_non_scalar_panics() {
        let x = Var::param(Tensor::ones(&[2, 2]));
        x.backward();
    }

    /// A small two-layer forward over trainable weights, as a model's is.
    fn forward(x: &Var, w: &Var) -> Var {
        x.matmul(w).tanh().add(x).sigmoid().mul(x)
    }

    fn weights() -> (Var, Var) {
        let mut rng = crate::Rng::seed(7);
        (
            Var::param(Tensor::randn(&[5, 5], 0.7, &mut rng)),
            Var::param(Tensor::randn(&[5, 5], 0.7, &mut rng)),
        )
    }

    #[test]
    fn no_grad_computes_the_same_bits_and_records_nothing() {
        let (x, w) = weights();
        let recorded = forward(&x, &w);
        let unrecorded = no_grad(|| forward(&x, &w));
        let bits = |v: &Var| -> Vec<u32> { v.value().data().iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(&recorded), bits(&unrecorded));
        assert!(!recorded.is_leaf());
        assert!(unrecorded.is_leaf());
        unrecorded.sum().backward();
        assert!(x.grad().is_none() && w.grad().is_none());
    }

    #[test]
    fn all_constant_ops_keep_no_parents_outside_a_scope_too() {
        let c = Var::constant(Tensor::ones(&[2, 2]));
        assert!(c.mul(&c).add(&c).is_leaf());
        let p = Var::param(Tensor::ones(&[2, 2]));
        assert!(!c.mul(&p).is_leaf());
    }

    #[test]
    fn no_grad_scopes_nest_and_end() {
        let (x, w) = weights();
        no_grad(|| {
            no_grad(|| assert!(forward(&x, &w).is_leaf()));
            // Leaving the inner scope does not end the outer one.
            assert!(forward(&x, &w).is_leaf());
        });
        assert!(!forward(&x, &w).is_leaf());
    }

    #[test]
    fn no_grad_is_restored_when_the_scope_unwinds() {
        let (x, w) = weights();
        let unwound = std::panic::catch_unwind(|| no_grad(|| panic!("inside the scope")));
        assert!(unwound.is_err());
        assert!(!forward(&x, &w).is_leaf());
    }

    #[test]
    fn a_scope_entered_and_left_does_not_disturb_a_recorded_graph() {
        let grads = |with_scope: bool| {
            let (x, w) = weights();
            let first = forward(&x, &w);
            if with_scope {
                no_grad(|| forward(&first, &w));
            }
            forward(&first, &w).sum().backward();
            (x.grad().unwrap(), w.grad().unwrap())
        };
        let (plain_x, plain_w) = grads(false);
        let (scoped_x, scoped_w) = grads(true);
        assert_eq!(plain_x.data(), scoped_x.data());
        assert_eq!(plain_w.data(), scoped_w.data());
        assert!(plain_w.data().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let x = Var::param(Tensor::scalar(1.0));
        let mut y = x.clone();
        for _ in 0..20_000 {
            y = y.add_scalar(0.0);
        }
        y.sum().backward();
        assert!((x.grad().unwrap().item() - 1.0).abs() < 1e-5);
    }
}
