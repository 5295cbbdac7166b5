//! Indexing ops: row gather / scatter-add (the message-passing primitives)
//! and the im2col unrolling used by the ConvTransE decoder.

use super::Var;
use crate::kernels::ops;
use crate::tensor::Tensor;

impl Var {
    /// Gathers rows of a rank-2 variable: `out[i] = self[idx[i]]`.
    ///
    /// This is the embedding-lookup / message-gather primitive; its backward
    /// pass scatter-adds the output gradient into the source rows.
    pub fn gather_rows(&self, idx: &[usize]) -> Var {
        let value = self.value().gather_rows(idx);
        let idx_owned: Vec<usize> = idx.to_vec();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let n = parents[0].value().shape()[0];
                vec![Some(g.scatter_add_rows(&idx_owned, n))]
            }),
        )
    }

    /// Scatter-adds rows of `self` (`[M, D]`) into a fresh `[n, D]` result at
    /// positions `idx` — the message-aggregation primitive. Backward gathers.
    pub fn scatter_add_rows(&self, idx: &[usize], n: usize) -> Var {
        let value = self.value().scatter_add_rows(idx, n);
        let idx_owned: Vec<usize> = idx.to_vec();
        Var::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _, _| vec![Some(g.gather_rows(&idx_owned))]),
        )
    }

    /// im2col unrolling for a width-3, zero-padded, 2-input-channel 1-D
    /// convolution over embedding positions (the ConvTransE stem).
    ///
    /// Given entity rows `self` (`[B, D]`) and relation rows `rel` (`[B, D]`)
    /// produces `[B * D, 6]` where row `b * D + j` holds
    /// `[e[j-1], e[j], e[j+1], r[j-1], r[j], r[j+1]]` (zero padding at the
    /// boundaries). Multiplying by a `[6, K]` kernel matrix then realises a
    /// `K`-channel convolution.
    pub fn conv_im2col(&self, rel: &Var) -> Var {
        let e = self.value();
        let r = rel.value();
        assert_eq!(e.rank(), 2, "conv_im2col entity input must be rank-2");
        assert_eq!(e.shape(), r.shape(), "conv_im2col inputs must share shape");
        let (b, d) = (e.shape()[0], e.shape()[1]);
        let data = ops::im2col3(e.data(), r.data(), b, d);
        drop(e);
        drop(r);
        let value = Tensor::from_vec(data, &[b * d, 6]);
        Var::from_op(
            value,
            vec![self.clone(), rel.clone()],
            Box::new(move |g, _, _| {
                let (ge, gr) = ops::im2col3_bwd(g.data(), b, d);
                vec![
                    Some(Tensor::from_vec(ge, &[b, d])),
                    Some(Tensor::from_vec(gr, &[b, d])),
                ]
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
    fn gather_grad_accumulates_duplicates() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        check(&[x], |v| v[0].gather_rows(&[0, 1, 0]).sum(), 1e-2);

        let x = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        x.gather_rows(&[0, 0, 0]).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[3.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_add_grad() {
        let mut rng = Rng::seed(4);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        check(
            &[x],
            |v| {
                let s = v[0].scatter_add_rows(&[1, 0, 1, 2], 3);
                s.mul(&s).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn gather_then_scatter_is_linear() {
        // scatter(gather(x)) with matching indices doubles rows gathered twice.
        let x = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let y = x.gather_rows(&[1, 1]).scatter_add_rows(&[0, 0], 2);
        assert_eq!(y.value().data(), &[6.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn im2col_layout() {
        let e = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let r = Var::constant(Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]));
        let x = e.conv_im2col(&r);
        assert_eq!(x.value().shape(), &[3, 6]);
        // j = 0: left-padded
        assert_eq!(x.value().row(0), &[0.0, 1.0, 2.0, 0.0, 10.0, 20.0]);
        // j = 1: full window
        assert_eq!(x.value().row(1), &[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        // j = 2: right-padded
        assert_eq!(x.value().row(2), &[2.0, 3.0, 0.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn im2col_grad() {
        let mut rng = Rng::seed(21);
        let e = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let r = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let k = Tensor::randn(&[6, 3], 1.0, &mut rng);
        check(
            &[e, r],
            move |v| {
                let x = v[0].conv_im2col(&v[1]);
                x.matmul(&Var::constant(k.clone())).tanh().sum()
            },
            2e-2,
        );
    }
}
