//! Linear-algebra and layout ops for [`Var`]: matmul, transpose, reshape and
//! concatenation.

use super::Var;
use crate::kernels::ops;
use crate::tensor::Tensor;

impl Var {
    /// Matrix product `[N, K] x [K, M] -> [N, M]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let value = self.value().matmul(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                // dA = G B^T ; dB = A^T G
                let ga = g.matmul(&b.transpose2());
                let gb = a.transpose2().matmul(g);
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Matrix product for a lhs with many structural zeros (one-hot gathers,
    /// zero-padded im2col windows). Forward and the `dB = Aᵀ G` backward use
    /// the sparse-skipping kernel (`Aᵀ` shares the zeros of `A`); `dA` is
    /// dense.
    pub fn matmul_sparse_lhs(&self, other: &Var) -> Var {
        let value = self.value().matmul_sparse_lhs(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, _, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                let ga = g.matmul(&b.transpose2());
                let gb = a.transpose2().matmul_sparse_lhs(g);
                vec![Some(ga), Some(gb)]
            }),
        )
    }

    /// Transpose of a rank-2 variable.
    pub fn transpose2(&self) -> Var {
        let value = self.value().transpose2();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, _| vec![Some(g.transpose2())]),
        )
    }

    /// Reshape preserving element count.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let value = self.value().reshape(shape);
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _, parents| vec![Some(g.reshape(parents[0].value().shape()))]),
        )
    }

    /// Column-wise concatenation of two rank-2 variables with equal row
    /// counts: `[N, A] || [N, B] -> [N, A + B]`.
    pub fn concat_cols(&self, other: &Var) -> Var {
        let a = self.value();
        let b = other.value();
        assert_eq!(a.rank(), 2, "concat_cols lhs must be rank-2");
        assert_eq!(b.rank(), 2, "concat_cols rhs must be rank-2");
        assert_eq!(a.shape()[0], b.shape()[0], "concat_cols row mismatch");
        let (n, da, db) = (a.shape()[0], a.shape()[1], b.shape()[1]);
        let data = ops::concat_cols(a.data(), b.data(), n, da, db);
        drop(a);
        drop(b);
        let value = Tensor::from_vec(data, &[n, da + db]);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, _, _| {
                let (ga, gb) = ops::split_cols(g.data(), n, da, db);
                vec![
                    Some(Tensor::from_vec(ga, &[n, da])),
                    Some(Tensor::from_vec(gb, &[n, db])),
                ]
            }),
        )
    }

    /// Row-wise concatenation (vertical stack) of rank-2 variables with
    /// equal column counts.
    pub fn concat_rows(vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_rows needs at least one input");
        let d = vars[0].value().shape()[1];
        let mut rows = Vec::with_capacity(vars.len());
        let mut data = Vec::new();
        for v in vars {
            let t = v.value();
            assert_eq!(t.rank(), 2, "concat_rows inputs must be rank-2");
            assert_eq!(t.shape()[1], d, "concat_rows column mismatch");
            rows.push(t.shape()[0]);
            data.extend_from_slice(t.data());
        }
        let n: usize = rows.iter().sum();
        let value = Tensor::from_vec(data, &[n, d]);
        Var::from_op(
            value,
            vars.to_vec(),
            Box::new(move |g, _, _| {
                let mut out = Vec::with_capacity(rows.len());
                let mut offset = 0usize;
                for &r in &rows {
                    let chunk = g.data()[offset * d..(offset + r) * d].to_vec();
                    out.push(Some(Tensor::from_vec(chunk, &[r, d])));
                    offset += r;
                }
                out
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
    fn matmul_grad() {
        let mut rng = Rng::seed(11);
        let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 2], 1.0, &mut rng);
        check(&[a, b], |v| v[0].matmul(&v[1]).sum(), 1e-2);
    }

    #[test]
    fn matmul_chain_grad() {
        let mut rng = Rng::seed(12);
        let a = Tensor::randn(&[2, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[3, 3], 0.5, &mut rng);
        check(
            &[a, b],
            |v| v[0].matmul(&v[1]).tanh().matmul(&v[0].transpose2()).sum(),
            2e-2,
        );
    }

    #[test]
    fn transpose_grad() {
        let mut rng = Rng::seed(13);
        let a = Tensor::randn(&[3, 2], 1.0, &mut rng);
        check(
            &[a],
            |v| v[0].transpose2().mul(&v[0].transpose2()).sum(),
            1e-2,
        );
    }

    #[test]
    fn reshape_grad() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        check(
            &[a],
            |v| {
                let r = v[0].reshape(&[3, 2]);
                r.mul(&r).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn concat_cols_forward_and_grad() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]);
        let va = Var::constant(a.clone());
        let vb = Var::constant(b.clone());
        let c = va.concat_cols(&vb);
        assert_eq!(c.value().shape(), &[2, 3]);
        assert_eq!(c.value().data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        check(
            &[a, b],
            |v| v[0].concat_cols(&v[1]).mul(&v[0].concat_cols(&v[1])).sum(),
            1e-2,
        );
    }

    #[test]
    fn concat_rows_forward_and_grad() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Var::concat_rows(&[Var::constant(a.clone()), Var::constant(b.clone())]);
        assert_eq!(c.value().shape(), &[3, 2]);
        assert_eq!(c.value().data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        check(
            &[a, b],
            |v| {
                let c = Var::concat_rows(&[v[0].clone(), v[1].clone()]);
                c.mul(&c).sum()
            },
            1e-2,
        );
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn concat_cols_row_mismatch_panics() {
        let a = Var::constant(Tensor::ones(&[2, 2]));
        let b = Var::constant(Tensor::ones(&[3, 2]));
        a.concat_cols(&b);
    }
}
