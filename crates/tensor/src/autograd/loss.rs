//! Fused loss and normalization ops.

use super::Var;
use crate::kernels::ops;
use crate::tensor::Tensor;

impl Var {
    /// Mean cross-entropy between row logits and integer targets:
    /// `-(1/N) Σ log softmax(logits)[i, targets[i]]`.
    ///
    /// The op is fused (log-sum-exp shift inside) so large logits remain
    /// stable; the backward pass is `(softmax - onehot) / N`.
    pub fn cross_entropy(&self, targets: &[usize]) -> Var {
        let logits = self.value();
        assert_eq!(logits.rank(), 2, "cross_entropy expects [N, C] logits");
        let (n, c) = (logits.shape()[0], logits.shape()[1]);
        assert_eq!(targets.len(), n, "cross_entropy target count mismatch");
        assert!(n > 0, "cross_entropy on empty batch");
        #[expect(
            clippy::panic,
            reason = "bounds contract, same class as the adjacent asserts — a bad target is a caller bug, not a representable state"
        )]
        if let Some(&bad) = targets.iter().find(|&&t| t >= c) {
            panic!("target {bad} out of bounds for {c} classes");
        }
        let loss = ops::cross_entropy_fwd(logits.data(), n, c, targets) / n as f32;
        drop(logits);
        let targets_owned: Vec<usize> = targets.to_vec();
        Var::from_op(
            Tensor::scalar(loss),
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let logits = parents[0].value();
                let scale = g.item() / n as f32;
                let grad = ops::cross_entropy_bwd(logits.data(), n, c, &targets_owned, scale);
                vec![Some(Tensor::from_vec(grad, &[n, c]))]
            }),
        )
    }

    /// Row-wise L2 normalization onto the unit sphere, `y = x / max(‖x‖, ε)`
    /// — the projection used by the contrastive heads (Eq. 15–16).
    pub fn l2_normalize_rows(&self) -> Var {
        let x = self.value();
        assert_eq!(x.rank(), 2, "l2_normalize_rows expects rank-2");
        let (n, d) = (x.shape()[0], x.shape()[1]);
        let (out, norms) = ops::l2_normalize_rows_fwd(x.data(), n, d);
        drop(x);
        Var::from_op(
            Tensor::from_vec(out, &[n, d]),
            vec![self.clone()],
            Box::new(move |g, out_val, _| {
                // grad_x = (g - (g·y) y) / ‖x‖ per row
                let grad = ops::l2_normalize_rows_bwd(out_val.data(), g.data(), &norms, n, d);
                vec![Some(Tensor::from_vec(grad, &[n, d]))]
            }),
        )
    }

    /// Binary cross-entropy with logits against dense multi-hot labels of
    /// the same shape (Eq. 20's multi-label view), averaged over rows.
    pub fn bce_with_logits(&self, labels: &Tensor) -> Var {
        let x = self.value();
        assert_eq!(x.shape(), labels.shape(), "bce label shape mismatch");
        assert_eq!(x.rank(), 2, "bce_with_logits expects [N, C]");
        let n = x.shape()[0].max(1) as f32;
        // loss = max(x,0) - x*y + ln(1 + e^{-|x|}), the numerically stable form.
        let loss = ops::bce_fwd(x.data(), labels.data()) / n;
        drop(x);
        let labels_owned = labels.clone();
        Var::from_op(
            Tensor::scalar(loss),
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let x = parents[0].value();
                let scale = g.item() / n;
                let grad = ops::bce_bwd(x.data(), labels_owned.data(), scale);
                vec![Some(Tensor::from_vec(grad, x.shape()))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck::check;
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn cross_entropy_matches_manual() {
        // Uniform logits over C classes -> loss = ln(C).
        let logits = Var::constant(Tensor::zeros(&[2, 4]));
        let loss = logits.cross_entropy(&[0, 3]);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad() {
        let mut rng = Rng::seed(8);
        let logits = Tensor::randn(&[3, 5], 1.0, &mut rng);
        check(&[logits], |v| v[0].cross_entropy(&[1, 4, 0]), 1e-2);
    }

    #[test]
    fn cross_entropy_is_stable_for_large_logits() {
        let logits = Var::param(Tensor::from_vec(vec![500.0, -500.0, 0.0, 1.0], &[1, 4]));
        let loss = logits.cross_entropy(&[0]);
        assert!(loss.item().is_finite());
        loss.backward();
        assert!(logits.grad().unwrap().all_finite());
    }

    #[test]
    fn cross_entropy_decreases_with_confidence() {
        let weak = Var::constant(Tensor::from_vec(vec![1.0, 0.0], &[1, 2]));
        let strong = Var::constant(Tensor::from_vec(vec![5.0, 0.0], &[1, 2]));
        assert!(strong.cross_entropy(&[0]).item() < weak.cross_entropy(&[0]).item());
    }

    #[test]
    fn l2_normalize_makes_unit_rows() {
        let mut rng = Rng::seed(9);
        let x = Var::constant(Tensor::randn(&[4, 6], 2.0, &mut rng));
        let y = x.l2_normalize_rows();
        for i in 0..4 {
            let norm: f32 = y.value().row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn l2_normalize_grad() {
        let mut rng = Rng::seed(10);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 4], 1.0, &mut rng);
        check(
            &[x],
            move |v| {
                v[0].l2_normalize_rows()
                    .mul(&Var::constant(w.clone()))
                    .sum()
            },
            2e-2,
        );
    }

    #[test]
    fn l2_normalize_survives_zero_row() {
        let x = Var::param(Tensor::zeros(&[1, 3]));
        let y = x.l2_normalize_rows();
        assert!(y.value().all_finite());
        y.sum().backward();
        assert!(x.grad().unwrap().all_finite());
    }

    #[test]
    fn bce_grad_and_value() {
        // logit 0 against label 0.5 -> loss ln 2.
        let x = Var::constant(Tensor::zeros(&[1, 1]));
        let labels = Tensor::from_vec(vec![0.5], &[1, 1]);
        assert!((x.bce_with_logits(&labels).item() - (2.0f32).ln()).abs() < 1e-5);

        let mut rng = Rng::seed(14);
        let logits = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let labels = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 3]);
        check(&[logits], move |v| v[0].bce_with_logits(&labels), 1e-2);
    }
}
