//! Elementwise arithmetic, activations and reductions for [`Var`].

use super::Var;
use crate::kernels::{ops, Binary, Unary};
use crate::tensor::Tensor;

impl Var {
    // ------------------------------------------------------ broadcast arith

    /// Broadcasting addition.
    pub fn add(&self, other: &Var) -> Var {
        let value = self.value().add(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                vec![
                    Some(g.reduce_to(parents[0].value().shape())),
                    Some(g.reduce_to(parents[1].value().shape())),
                ]
            }),
        )
    }

    /// Broadcasting subtraction.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.value().sub(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                vec![
                    Some(g.reduce_to(parents[0].value().shape())),
                    Some(g.scale(-1.0).reduce_to(parents[1].value().shape())),
                ]
            }),
        )
    }

    /// Broadcasting elementwise multiplication.
    pub fn mul(&self, other: &Var) -> Var {
        let value = self.value().mul(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                vec![
                    Some(g.mul(&b).reduce_to(a.shape())),
                    Some(g.mul(&a).reduce_to(b.shape())),
                ]
            }),
        )
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, other: &Var) -> Var {
        let value = self.value().div(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                let ga = g.div(&b).reduce_to(a.shape());
                // d(a/b)/db = -a / b^2
                let gb = g.mul(&a).div(&b.mul(&b)).scale(-1.0).reduce_to(b.shape());
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().scale(s);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _, _| vec![Some(g.scale(s))]),
        )
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.value().unary(Unary::AddScalar(s));
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, _| vec![Some(g.clone())]),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    // ----------------------------------------------------------- activations

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.value().unary(Unary::Sigmoid);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, out, _| vec![Some(g.binary(out, Binary::SigmoidBwd))]),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.value().unary(Unary::Tanh);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, out, _| vec![Some(g.binary(out, Binary::TanhBwd))]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        self.leaky_relu(0.0)
    }

    /// Leaky ReLU with negative slope `slope`.
    ///
    /// The paper's σ₁ is RReLU; in evaluation mode RReLU is a leaky ReLU with
    /// the mean slope of its range (PyTorch default range [1/8, 1/3] → slope
    /// 0.2292), which is what we use deterministically. See DESIGN.md.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let value = self.value().unary(Unary::LeakyRelu(slope));
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let x = parents[0].value();
                vec![Some(g.binary(&x, Binary::LeakyReluBwd(slope)))]
            }),
        )
    }

    /// RReLU in its deterministic (evaluation-mode) form.
    pub fn rrelu(&self) -> Var {
        self.leaky_relu(crate::nn::RRELU_EVAL_SLOPE)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let value = self.value().unary(Unary::Exp);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, out, _| vec![Some(g.mul(out))]),
        )
    }

    /// Elementwise natural logarithm (inputs clamped at 1e-12 for stability).
    pub fn ln(&self) -> Var {
        let value = self.value().unary(Unary::LnClamped);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, parents| {
                let x = parents[0].value();
                vec![Some(g.binary(&x, Binary::LnBwd))]
            }),
        )
    }

    /// Elementwise cosine (the paper's periodic time activation, Eq. 2).
    pub fn cos(&self) -> Var {
        let value = self.value().unary(Unary::Cos);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, parents| {
                let x = parents[0].value();
                vec![Some(g.binary(&x, Binary::CosBwd))]
            }),
        )
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements, as a scalar variable.
    pub fn sum(&self) -> Var {
        let value = Tensor::scalar(self.value().sum_all());
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, parents| {
                let shape = parents[0].value().shape().to_vec();
                vec![Some(Tensor::full(&shape, g.item()))]
            }),
        )
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean(&self) -> Var {
        let n = self.value().numel().max(1) as f32;
        self.sum().scale(1.0 / n)
    }

    /// Column-wise mean of a rank-2 variable: `[N, D] -> [D]`.
    pub fn mean_rows(&self) -> Var {
        let value = self.value().mean_rows();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, parents| {
                let shape = parents[0].value().shape().to_vec();
                let n = shape[0].max(1) as f32;
                // Spread g/N back over every row.
                let gb = g.reshape(&[1, g.numel()]);
                vec![Some(Tensor::ones(&[shape[0], 1]).mul(&gb).scale(1.0 / n))]
            }),
        )
    }

    /// Row-wise softmax of a rank-2 variable.
    pub fn softmax_rows(&self) -> Var {
        let value = self.value().softmax_rows();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, out, _| {
                // dx = y * (g - sum(g*y, row))
                let (n, d) = (out.shape()[0], out.shape()[1]);
                let grad = ops::softmax_rows_bwd(out.data(), g.data(), n, d);
                vec![Some(Tensor::from_vec(grad, &[n, d]))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck::check;
    use super::*;
    use crate::rng::Rng;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn add_forward_and_grad() {
        check(
            &[
                t(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]),
                t(vec![0.3, 0.7], &[2]),
            ],
            |v| v[0].add(&v[1]).sum(),
            1e-2,
        );
    }

    #[test]
    fn sub_grad_broadcast_column() {
        check(
            &[
                t(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]),
                t(vec![0.3, 0.7], &[2, 1]),
            ],
            |v| v[0].sub(&v[1]).mul(&v[0]).sum(),
            1e-2,
        );
    }

    #[test]
    fn mul_div_grads() {
        check(
            &[
                t(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]),
                t(vec![1.3, 0.7, 2.0, -1.5], &[2, 2]),
            ],
            |v| v[0].mul(&v[1]).div(&v[1].mul(&v[1]).add_scalar(1.0)).sum(),
            1e-2,
        );
    }

    #[test]
    fn activation_grads() {
        // No exact zeros: finite differences disagree with the subgradient
        // convention at the ReLU kink.
        let x = t(vec![0.5, -0.3, 1.2, -2.0, 0.4, 0.05], &[2, 3]);
        let xs = std::slice::from_ref(&x);
        check(xs, |v| v[0].sigmoid().sum(), 1e-2);
        check(xs, |v| v[0].tanh().sum(), 1e-2);
        check(xs, |v| v[0].exp().sum(), 1e-2);
        check(xs, |v| v[0].cos().sum(), 1e-2);
        check(xs, |v| v[0].leaky_relu(0.2).sum(), 2e-2);
    }

    #[test]
    fn ln_grad_positive_domain() {
        check(
            &[t(vec![0.5, 1.3, 2.2, 0.9], &[4])],
            |v| v[0].ln().sum(),
            1e-2,
        );
    }

    #[test]
    fn softmax_rows_grad() {
        let mut rng = Rng::seed(5);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let wc = w.clone();
        check(
            &[x],
            move |v| v[0].softmax_rows().mul(&Var::constant(wc.clone())).sum(),
            2e-2,
        );
    }

    #[test]
    fn mean_rows_grad() {
        check(
            &[t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2])],
            |v| {
                let m = v[0].mean_rows();
                m.mul(&m).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn sigmoid_saturates_sanely() {
        let x = Var::constant(t(vec![40.0, -40.0], &[2]));
        let y = x.sigmoid();
        assert!((y.value().data()[0] - 1.0).abs() < 1e-6);
        assert!(y.value().data()[1] < 1e-6);
    }

    #[test]
    fn mean_matches_manual() {
        let x = Var::constant(t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        assert!((x.mean().item() - 2.5).abs() < 1e-6);
    }
}
