//! The periodic time encoding of Eq. 2–3:
//!
//! ```text
//! φ(d)  = cos(d · w_t + b_t)                  (Eq. 2)
//! ĥ_t   = W₀ [ h_t ‖ φ(d) ]                   (Eq. 3)
//! ```
//!
//! `d = t_q − t_i` is the (scalar) interval between the query time and the
//! snapshot being aggregated; `w_t, b_t ∈ R^k` are a learnable frequency and
//! phase bank, so cyclically recurring facts (period-p meetings) land on the
//! same phase.

use logcl_tensor::nn::{xavier_uniform, ParamSet};
use logcl_tensor::{Rng, Tensor, Var};

/// The learnable periodic time encoder.
pub struct TimeEncoder {
    /// Frequency bank `w_t` (`[k]`).
    pub w_t: Var,
    /// Phase bank `b_t` (`[k]`).
    pub b_t: Var,
    /// Fusion transform `W₀` (`[d + k, d]`).
    pub w0: Var,
    k: usize,
}

impl TimeEncoder {
    /// An encoder producing `dim`-wide dynamic embeddings with a `k`-wide
    /// frequency bank.
    pub fn new(dim: usize, k: usize, rng: &mut Rng) -> Self {
        // Frequencies spread over scales so different periods are separable
        // at initialisation (geometric ladder, as in positional encodings).
        let freqs: Vec<f32> = (0..k)
            .map(|i| 1.0 / (1.6f32.powi(i as i32)).max(1e-4))
            .collect();
        // W₀ starts as [I; ε·noise]: the fusion is the identity on the
        // entity embedding plus a faint time signal, so stacking this
        // transform every snapshot does not scramble optimisation early on
        // (it learns to use φ(d) as training progresses).
        let mut w0 = Tensor::zeros(&[dim + k, dim]);
        for i in 0..dim {
            w0.set2(i, i, 1.0);
        }
        let noise = xavier_uniform(k, dim, rng);
        for i in 0..k {
            for j in 0..dim {
                w0.set2(dim + i, j, 0.1 * noise.at2(i, j));
            }
        }
        Self {
            w_t: Var::param(Tensor::from_vec(freqs, &[k])),
            b_t: Var::param(Tensor::zeros(&[k])),
            w0: Var::param(w0),
            k,
        }
    }

    /// `φ(d)` as a `[1, k]` row.
    pub fn phi(&self, d: f32) -> Var {
        self.w_t.scale(d).add(&self.b_t).cos().reshape(&[1, self.k])
    }

    /// Eq. 3: fuses entity embeddings `h` (`[E, D]`) with the interval
    /// encoding `φ(d)` broadcast to every entity, returning `[E, D]`.
    pub fn forward(&self, h: &Var, d: f32) -> Var {
        let e = h.shape()[0];
        let phi = self.phi(d);
        // Broadcast φ(d) over rows via ones ⊗ φ.
        let ones = Var::constant(Tensor::ones(&[e, 1]));
        let phi_rows = ones.matmul(&phi);
        h.concat_cols(&phi_rows).matmul(&self.w0)
    }

    /// Registers the three parameters.
    pub fn register(&self, params: &mut ParamSet, prefix: &str) {
        params.register(format!("{prefix}.w_t"), self.w_t.clone());
        params.register(format!("{prefix}.b_t"), self.b_t.clone());
        params.register(format!("{prefix}.w0"), self.w0.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_is_bounded_and_periodic_like() {
        let mut rng = Rng::seed(61);
        let enc = TimeEncoder::new(8, 4, &mut rng);
        for d in [0.0, 1.0, 5.0, 50.0] {
            let p = enc.phi(d);
            assert_eq!(p.shape(), vec![1, 4]);
            assert!(p.value().data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
        }
        // φ(0) with zero phase = cos(0) = 1 everywhere.
        assert!(enc
            .phi(0.0)
            .value()
            .data()
            .iter()
            .all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn forward_shape_and_interval_sensitivity() {
        let mut rng = Rng::seed(62);
        let enc = TimeEncoder::new(6, 4, &mut rng);
        let h = Var::constant(Tensor::randn(&[5, 6], 0.5, &mut rng));
        let a = enc.forward(&h, 1.0);
        let b = enc.forward(&h, 2.0);
        assert_eq!(a.shape(), vec![5, 6]);
        assert_ne!(a.value().data(), b.value().data(), "interval must matter");
    }

    #[test]
    fn gradients_reach_frequency_bank() {
        let mut rng = Rng::seed(63);
        let enc = TimeEncoder::new(4, 3, &mut rng);
        let h = Var::constant(Tensor::randn(&[2, 4], 0.5, &mut rng));
        enc.forward(&h, 3.0).sum().backward();
        assert!(enc.w_t.grad().is_some());
        assert!(enc.b_t.grad().is_some());
        assert!(enc.w0.grad().is_some());
    }
}
