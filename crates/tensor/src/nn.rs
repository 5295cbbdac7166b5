//! Neural-network building blocks: initialisation, layers and a named
//! parameter registry.

use std::cell::Cell;

use crate::autograd::Var;
use crate::rng::Rng;
use crate::tensor::Tensor;

/// Deterministic (evaluation-mode) slope used for the paper's RReLU σ₁:
/// the mean of PyTorch's default RReLU range `[1/8, 1/3]`.
pub const RRELU_EVAL_SLOPE: f32 = (1.0 / 8.0 + 1.0 / 3.0) / 2.0;

// ---------------------------------------------------------------------- init

thread_local! {
    /// Whether layers built on this thread are inside an [`uninitialised`]
    /// scope.
    static UNINITIALISED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `build` with parameter initialisation off on this thread:
/// [`xavier_uniform`] and [`normal_init`] return zeros and draw nothing from
/// their `Rng`. For a model whose every parameter is overwritten right after
/// (a replica of published weights), so the draws would be thrown away.
/// Scopes nest; the previous state comes back when `build` returns or
/// unwinds.
pub fn uninitialised<T>(build: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            UNINITIALISED.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(UNINITIALISED.with(|flag| flag.replace(true)));
    build()
}

fn initialising() -> bool {
    !UNINITIALISED.with(Cell::get)
}

/// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]` matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    if !initialising() {
        return Tensor::zeros(&[fan_in, fan_out]);
    }
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -bound, bound, rng)
}

/// Normal(0, std²) initialisation of arbitrary shape.
pub fn normal_init(shape: &[usize], std: f32, rng: &mut Rng) -> Tensor {
    if !initialising() {
        return Tensor::zeros(shape);
    }
    Tensor::randn(shape, std, rng)
}

// ------------------------------------------------------------------ registry

/// A named collection of trainable parameters; the unit optimizers and
/// checkpointing operate on.
#[derive(Default)]
pub struct ParamSet {
    items: Vec<(String, Var)>,
}

impl ParamSet {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `var` under `name` (names must be unique) and returns the
    /// handle back for convenience.
    pub fn register(&mut self, name: impl Into<String>, var: Var) -> Var {
        let name = name.into();
        assert!(
            var.is_param(),
            "only trainable Vars can be registered: {name}"
        );
        assert!(
            self.items.iter().all(|(n, _)| *n != name),
            "duplicate parameter name {name}"
        );
        self.items.push((name, var.clone()));
        var
    }

    /// Creates, registers and returns a fresh parameter.
    pub fn new_param(&mut self, name: impl Into<String>, init: Tensor) -> Var {
        self.register(name, Var::param(init))
    }

    /// Iterates over `(name, var)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Var)> {
        self.items.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// All parameter handles.
    pub fn vars(&self) -> Vec<Var> {
        self.items.iter().map(|(_, v)| v.clone()).collect()
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Var> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.items.iter().map(|(_, v)| v.value().numel()).sum()
    }

    /// Clears gradients on every parameter.
    pub fn zero_grad(&self) {
        for (_, v) in &self.items {
            v.zero_grad();
        }
    }

    /// Merges another registry under a `prefix/` namespace.
    pub fn absorb(&mut self, prefix: &str, other: ParamSet) {
        for (name, var) in other.items {
            self.register(format!("{prefix}/{name}"), var);
        }
    }
}

// -------------------------------------------------------------------- layers

/// A dense affine layer `y = x W + b`.
pub struct Linear {
    /// Weight matrix `[in_dim, out_dim]`.
    pub weight: Var,
    /// Optional bias `[out_dim]`.
    pub bias: Option<Var>,
}

impl Linear {
    /// Xavier-initialised layer with bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self {
            weight: Var::param(xavier_uniform(in_dim, out_dim, rng)),
            bias: Some(Var::param(Tensor::zeros(&[out_dim]))),
        }
    }

    /// Xavier-initialised layer without bias.
    pub fn new_no_bias(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self {
            weight: Var::param(xavier_uniform(in_dim, out_dim, rng)),
            bias: None,
        }
    }

    /// Applies the layer to `[N, in_dim]` input.
    pub fn forward(&self, x: &Var) -> Var {
        let y = x.matmul(&self.weight);
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }

    /// Registers this layer's parameters under `prefix`.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.weight"), self.weight.clone());
        if let Some(b) = &self.bias {
            params.register(format!("{prefix}.bias"), b.clone());
        }
    }
}

/// A trainable embedding table `[num, dim]` with row lookup.
pub struct Embedding {
    /// The table itself.
    pub weight: Var,
}

impl Embedding {
    /// Normal(0, 1/√dim) initialised table.
    pub fn new(num: usize, dim: usize, rng: &mut Rng) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        Self {
            weight: Var::param(normal_init(&[num, dim], std, rng)),
        }
    }

    /// Rows `idx` of the table as `[idx.len(), dim]`.
    pub fn lookup(&self, idx: &[usize]) -> Var {
        self.weight.gather_rows(idx)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.weight.value().shape()[0]
    }

    /// True for an empty table.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.weight.value().shape()[1]
    }

    /// Registers the table under `prefix`.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.weight"), self.weight.clone());
    }
}

/// A two-layer perceptron with ReLU hidden activation, used as the
/// contrastive projection head (Eq. 15–16). Output rows are L2-normalised
/// onto the unit sphere when `normalize` is set.
pub struct Mlp {
    /// First affine layer.
    pub fc1: Linear,
    /// Second affine layer.
    pub fc2: Linear,
    /// Whether to project outputs onto the unit sphere.
    pub normalize: bool,
}

impl Mlp {
    /// Builds an `in_dim -> hidden -> out_dim` MLP.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        normalize: bool,
        rng: &mut Rng,
    ) -> Self {
        Self {
            fc1: Linear::new(in_dim, hidden, rng),
            fc2: Linear::new(hidden, out_dim, rng),
            normalize,
        }
    }

    /// Applies the MLP to `[N, in_dim]`.
    pub fn forward(&self, x: &Var) -> Var {
        let h = self.fc1.forward(x).relu();
        let y = self.fc2.forward(&h);
        if self.normalize {
            y.l2_normalize_rows()
        } else {
            y
        }
    }

    /// Registers both layers under `prefix`.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        self.fc1.register(params, &format!("{prefix}.fc1"));
        self.fc2.register(params, &format!("{prefix}.fc2"));
    }
}

/// Inverted dropout: during training, zeroes each element with probability
/// `p` and scales survivors by `1/(1-p)`; identity at evaluation time.
///
/// The mask is a constant in the autograd graph, so gradients flow only
/// through surviving elements — exactly standard dropout semantics.
pub fn dropout(x: &Var, p: f32, training: bool, rng: &mut Rng) -> Var {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout p must be in [0, 1), got {p}"
    );
    if !training || p == 0.0 {
        return x.clone();
    }
    let shape = x.shape();
    let keep = 1.0 - p;
    let mask_data: Vec<f32> = (0..x.value().numel())
        .map(|_| {
            if rng.chance(keep as f64) {
                1.0 / keep
            } else {
                0.0
            }
        })
        .collect();
    let mask = Var::constant(Tensor::from_vec(mask_data, &shape));
    x.mul(&mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_grad_flow() {
        let mut rng = Rng::seed(1);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 4]));
        let y = layer.forward(&x);
        assert_eq!(y.shape(), vec![2, 3]);
        y.sum().backward();
        assert_eq!(layer.weight.grad().unwrap().shape(), &[4, 3]);
        assert_eq!(layer.bias.as_ref().unwrap().grad().unwrap().shape(), &[3]);
    }

    #[test]
    fn embedding_lookup_grad_is_sparse() {
        let mut rng = Rng::seed(2);
        let emb = Embedding::new(5, 3, &mut rng);
        let y = emb.lookup(&[1, 3, 1]);
        y.sum().backward();
        let g = emb.weight.grad().unwrap();
        assert_eq!(g.row(1), &[2.0, 2.0, 2.0]); // looked up twice
        assert_eq!(g.row(3), &[1.0, 1.0, 1.0]);
        assert_eq!(g.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn mlp_normalizes_output() {
        let mut rng = Rng::seed(3);
        let mlp = Mlp::new(4, 8, 4, true, &mut rng);
        let x = Var::constant(Tensor::randn(&[3, 4], 1.0, &mut rng));
        let y = mlp.forward(&x);
        for i in 0..3 {
            let n: f32 = y.value().row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = Rng::seed(4);
        let x = Var::constant(Tensor::ones(&[10, 10]));
        let y = dropout(&x, 0.5, false, &mut rng);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut rng = Rng::seed(5);
        let x = Var::constant(Tensor::ones(&[100, 100]));
        let y = dropout(&x, 0.3, true, &mut rng);
        let mean = y.value().mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Survivors are scaled by 1/(1-p).
        let distinct: std::collections::HashSet<u32> =
            y.value().data().iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() <= 2);
    }

    #[test]
    fn paramset_registry() {
        let mut rng = Rng::seed(6);
        let mut params = ParamSet::new();
        let lin = Linear::new(2, 2, &mut rng);
        lin.register(&mut params, "dec");
        assert_eq!(params.len(), 2);
        assert!(params.get("dec.weight").is_some());
        assert_eq!(params.num_weights(), 4 + 2);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut params = ParamSet::new();
        params.new_param("w", Tensor::zeros(&[1]));
        params.new_param("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = Rng::seed(7);
        let w = xavier_uniform(100, 100, &mut rng);
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn an_uninitialised_scope_draws_nothing_and_ends_with_its_closure() {
        let mut rng = Rng::seed(8);
        let before = rng.state();
        let (w, e) = uninitialised(|| {
            (
                xavier_uniform(3, 4, &mut rng),
                normal_init(&[2, 5], 1.0, &mut rng),
            )
        });
        assert_eq!(rng.state(), before, "no draw inside the scope");
        assert!(w.data().iter().chain(e.data()).all(|&x| x == 0.0));
        assert_eq!((w.shape(), e.shape()), (&[3, 4][..], &[2, 5][..]));
        let _ = std::panic::catch_unwind(|| uninitialised(|| panic!("unwinds")));
        let drawn = xavier_uniform(3, 4, &mut rng);
        assert!(drawn.data().iter().any(|&x| x != 0.0), "scope restored");
    }
}
