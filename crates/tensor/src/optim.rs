//! Optimizers: Adam (the paper's choice) and SGD, plus global-norm gradient
//! clipping.

use serde::{Deserialize, Serialize};

use crate::autograd::Var;
use crate::kernels::ops;
use crate::nn::ParamSet;
use crate::serialize::{CheckpointError, TensorRecord};
use crate::tensor::Tensor;

/// Clips the global L2 norm of the gradients of `params` to `max_norm`,
/// returning the pre-clip norm. Parameters without gradients are skipped.
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad() {
            total += ops::sum_sq(g.data());
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.set_grad(g.scale(scale));
            }
        }
    }
    norm
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// ```
/// use logcl_tensor::{nn::ParamSet, optim::Adam, Tensor};
/// let mut params = ParamSet::new();
/// let x = params.new_param("x", Tensor::scalar(3.0));
/// let mut opt = Adam::new(&params, 0.1);
/// for _ in 0..200 {
///     x.mul(&x).sum().backward(); // d(x²)/dx
///     opt.step();
/// }
/// assert!(x.item().abs() < 0.05);
/// ```
pub struct Adam {
    params: Vec<Var>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer over every parameter of `params` with the
    /// paper's default learning rate semantics.
    pub fn new(params: &ParamSet, lr: f32) -> Self {
        let vars = params.vars();
        let m = vars.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        let v = vars.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Self {
            params: vars,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Adjusts the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step from the accumulated gradients, then clears
    /// them. Parameters with no gradient are left untouched.
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(grad) = p.grad() else { continue };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            p.update_value(|value| {
                ops::adam_step(
                    value.data_mut(),
                    grad.data(),
                    m.data_mut(),
                    v.data_mut(),
                    lr,
                    b1,
                    b2,
                    eps,
                    bc1,
                    bc2,
                );
            });
            p.zero_grad();
        }
    }

    /// Clips gradients then steps; returns the pre-clip gradient norm.
    pub fn clip_and_step(&mut self, max_norm: f32) -> f32 {
        let norm = clip_grad_norm(&self.params, max_norm);
        self.step();
        norm
    }

    /// Snapshots the optimizer's mutable state (step count, learning rate,
    /// both moment estimates). Hyper-parameters that never change mid-run
    /// (betas, eps) come from configuration, not the snapshot.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            lr: self.lr,
            m: self.m.iter().map(TensorRecord::from).collect(),
            v: self.v.iter().map(TensorRecord::from).collect(),
        }
    }

    /// Restores a previously exported state. The optimizer must be built
    /// over the same parameter set (same count and shapes); anything else
    /// is rejected without partially mutating the moments.
    pub fn import_state(&mut self, state: &AdamState) -> Result<(), CheckpointError> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(CheckpointError::Mismatch(format!(
                "optimizer state covers {} params, optimizer has {}",
                state.m.len(),
                self.params.len()
            )));
        }
        let mut m = Vec::with_capacity(state.m.len());
        let mut v = Vec::with_capacity(state.v.len());
        for (i, p) in self.params.iter().enumerate() {
            for (which, rec) in [("m", &state.m[i]), ("v", &state.v[i])] {
                if rec.shape != p.shape() {
                    return Err(CheckpointError::ShapeMismatch(format!(
                        "optimizer moment {which}[{i}]: snapshot shape {:?} vs parameter {:?}",
                        rec.shape,
                        p.shape()
                    )));
                }
            }
            m.push(state.m[i].try_to_tensor()?);
            v.push(state.v[i].try_to_tensor()?);
        }
        self.t = state.t;
        self.lr = state.lr;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

/// Serialisable snapshot of an [`Adam`] optimizer's mutable state, captured
/// at a checkpoint so a resumed run continues the identical update sequence.
#[derive(Serialize, Deserialize, Debug, Clone)]
pub struct AdamState {
    /// Step count (drives bias correction).
    pub t: u64,
    /// Learning rate at capture time (may differ from the configured one
    /// after divergence-rollback backoff).
    pub lr: f32,
    /// First-moment estimates, one per parameter in registration order.
    pub m: Vec<TensorRecord>,
    /// Second-moment estimates, one per parameter in registration order.
    pub v: Vec<TensorRecord>,
}

/// Plain stochastic gradient descent, for the baselines that train shallow
/// factorisation scores.
pub struct Sgd {
    params: Vec<Var>,
    lr: f32,
}

impl Sgd {
    /// SGD over every parameter of `params`.
    pub fn new(params: &ParamSet, lr: f32) -> Self {
        Self {
            params: params.vars(),
            lr,
        }
    }

    /// Applies one descent step and clears gradients.
    pub fn step(&mut self) {
        for p in &self.params {
            let Some(grad) = p.grad() else { continue };
            let lr = self.lr;
            p.update_value(|value| value.axpy(-lr, &grad));
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::ParamSet;

    /// Minimises ‖x - target‖² and checks convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let x = params.new_param("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let target = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let mut opt = Adam::new(&params, 0.1);
        for _ in 0..300 {
            let diff = x.sub(&target);
            let loss = diff.mul(&diff).sum();
            loss.backward();
            opt.step();
        }
        let v = x.to_tensor();
        assert!((v.data()[0] - 1.0).abs() < 1e-2, "{v:?}");
        assert!((v.data()[1] - 2.0).abs() < 1e-2, "{v:?}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let x = params.new_param("x", Tensor::scalar(4.0));
        let mut opt = Sgd::new(&params, 0.1);
        for _ in 0..200 {
            let loss = x.mul(&x).sum();
            loss.backward();
            opt.step();
        }
        assert!(x.item().abs() < 1e-2);
    }

    #[test]
    fn step_clears_gradients() {
        let mut params = ParamSet::new();
        let x = params.new_param("x", Tensor::scalar(1.0));
        let mut opt = Adam::new(&params, 0.01);
        x.mul(&x).sum().backward();
        assert!(x.grad().is_some());
        opt.step();
        assert!(x.grad().is_none());
    }

    #[test]
    fn clip_grad_norm_caps_global_norm() {
        let mut params = ParamSet::new();
        let x = params.new_param("x", Tensor::from_vec(vec![3.0, 4.0], &[2]));
        x.mul(&x).sum().backward(); // grad = [6, 8], norm 10
        let pre = clip_grad_norm(&params.vars(), 1.0);
        assert!((pre - 10.0).abs() < 1e-4);
        let g = x.grad().unwrap();
        let norm = g.norm();
        assert!((norm - 1.0).abs() < 1e-4, "clipped norm {norm}");
        // Direction preserved.
        assert!((g.data()[0] / g.data()[1] - 0.75).abs() < 1e-4);
    }

    /// Exporting Adam's state, continuing training, then importing it into
    /// a fresh optimizer over an identically initialised model must replay
    /// the exact same parameter trajectory — the bit-identical-resume
    /// guarantee the trainer's checkpoints rely on.
    #[test]
    fn adam_state_round_trip_replays_identically() {
        let build = || {
            let mut params = ParamSet::new();
            params.new_param("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
            params.new_param("y", Tensor::from_vec(vec![0.5; 6], &[2, 3]));
            params
        };
        let step = |params: &ParamSet, opt: &mut Adam| {
            let x = params.get("x").unwrap();
            let y = params.get("y").unwrap();
            x.mul(x).sum().add(&y.mul(y).sum()).backward();
            opt.clip_and_step(1.0);
        };

        let params_a = build();
        let mut opt_a = Adam::new(&params_a, 0.05);
        for _ in 0..5 {
            step(&params_a, &mut opt_a);
        }
        let snap = opt_a.export_state();
        assert_eq!(snap.t, 5);
        let frozen: Vec<Tensor> = params_a.vars().iter().map(|p| p.to_tensor()).collect();
        for _ in 0..5 {
            step(&params_a, &mut opt_a);
        }

        // Fresh model at the checkpointed weights + imported moments.
        let params_b = build();
        for (p, t) in params_b.vars().iter().zip(&frozen) {
            p.set_value(t.clone());
        }
        let mut opt_b = Adam::new(&params_b, 999.0); // wrong lr, import fixes it
        let json = crate::serialize::save_json_durable(&snap, {
            let dir = std::env::temp_dir().join("logcl-adam-state");
            std::fs::create_dir_all(&dir).unwrap();
            dir.join("adam.bin")
        });
        json.unwrap();
        let restored: AdamState = crate::serialize::load_json_durable(
            std::env::temp_dir()
                .join("logcl-adam-state")
                .join("adam.bin"),
        )
        .unwrap();
        opt_b.import_state(&restored).unwrap();
        assert_eq!(opt_b.lr(), 0.05);
        for _ in 0..5 {
            step(&params_b, &mut opt_b);
        }
        for (a, b) in params_a.vars().iter().zip(params_b.vars().iter()) {
            assert_eq!(a.to_tensor(), b.to_tensor(), "trajectories diverged");
        }
    }

    #[test]
    fn adam_import_rejects_mismatched_state() {
        let mut params = ParamSet::new();
        params.new_param("x", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let mut opt = Adam::new(&params, 0.1);
        let mut snap = opt.export_state();
        snap.m[0].shape = vec![3];
        snap.m[0].data = vec![0.0; 3];
        assert!(matches!(
            opt.import_state(&snap),
            Err(CheckpointError::ShapeMismatch(_))
        ));
        let mut snap = opt.export_state();
        snap.v.pop();
        assert!(matches!(
            opt.import_state(&snap),
            Err(CheckpointError::Mismatch(_))
        ));
        // Failed imports leave the optimizer usable.
        params
            .get("x")
            .unwrap()
            .mul(params.get("x").unwrap())
            .sum()
            .backward();
        opt.step();
    }

    #[test]
    fn adam_skips_gradientless_params() {
        let mut params = ParamSet::new();
        let x = params.new_param("x", Tensor::scalar(1.0));
        let y = params.new_param("y", Tensor::scalar(2.0));
        let mut opt = Adam::new(&params, 0.1);
        x.mul(&x).sum().backward();
        opt.step();
        assert_eq!(y.item(), 2.0, "untouched parameter must not move");
        assert!(x.item() < 1.0);
    }
}
