//! A single dense (fully-connected) layer: `y = act(x · Wᵀ + b)`.
//!
//! Weights are stored as `out × in` so the forward pass is a row-contiguous
//! `x · Wᵀ` product ([`Matrix::matmul_transpose_b`]).

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Dense layer parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `out_dim × in_dim`.
    pub weight: Matrix,
    /// Bias, `1 × out_dim`.
    pub bias: Matrix,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

/// Cached values from one forward pass, consumed by [`Dense::backward`].
#[derive(Clone, Debug)]
pub struct DenseCache {
    /// Layer input, `batch × in_dim`.
    pub input: Matrix,
    /// Pre-activation `x · Wᵀ + b`, `batch × out_dim`.
    pub pre_activation: Matrix,
}

/// Parameter gradients for one layer, same shapes as the parameters.
#[derive(Clone, Debug)]
pub struct DenseGrad {
    pub weight: Matrix,
    pub bias: Matrix,
}

impl Dense {
    /// New layer with uniform "fan-in" initialization `U(−1/√in, 1/√in)`
    /// (the scheme DDPG/TD3 reference implementations use for hidden layers).
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        let bound = 1.0 / (in_dim as f64).sqrt();
        Self::with_bound(in_dim, out_dim, activation, bound, rng)
    }

    /// New layer with uniform initialization in `(−bound, bound)`. Output
    /// heads of actor/critic networks conventionally use a small bound
    /// (e.g. 3e-3) so initial outputs sit near zero.
    pub fn with_bound(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        bound: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let mut sample = || rng.gen_range(-bound..bound);
        Self {
            weight: Matrix::from_fn(out_dim, in_dim, |_, _| sample()),
            bias: Matrix::from_fn(1, out_dim, |_, _| sample()),
            activation,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Forward pass; returns the activated output and the cache needed for
    /// backprop.
    pub fn forward(&self, input: &Matrix) -> (Matrix, DenseCache) {
        let pre = input.matmul_transpose_b_bias(&self.weight, &self.bias);
        let out = self.activation.forward(&pre);
        (
            out,
            DenseCache {
                input: input.clone(),
                pre_activation: pre,
            },
        )
    }

    /// Forward pass without caching — inference only.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = input.matmul_transpose_b_bias(&self.weight, &self.bias);
        self.activation.forward_inplace(&mut out);
        out
    }

    /// Backward pass. `grad_output` is ∂L/∂y (`batch × out_dim`); returns
    /// (∂L/∂x, parameter gradients).
    pub fn backward(&self, cache: &DenseCache, grad_output: &Matrix) -> (Matrix, DenseGrad) {
        // δ = ∂L/∂z = ∂L/∂y ⊙ act'(z)
        let delta = grad_output.hadamard(&self.activation.derivative(&cache.pre_activation));
        // ∂L/∂W = δᵀ · x  (out × in)
        let grad_w = delta.transpose_a_matmul(&cache.input);
        // ∂L/∂b = column sums of δ
        let grad_b = delta.sum_rows();
        // ∂L/∂x = δ · W  (batch × in)
        let grad_input = delta.matmul(&self.weight);
        (
            grad_input,
            DenseGrad {
                weight: grad_w,
                bias: grad_b,
            },
        )
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Polyak update `θ ← τ·other + (1−τ)·θ` used for target networks.
    pub fn soft_update_from(&mut self, other: &Dense, tau: f64) {
        polyak(&mut self.weight, &other.weight, tau);
        polyak(&mut self.bias, &other.bias, tau);
    }
}

fn polyak(dst: &mut Matrix, src: &Matrix, tau: f64) {
    assert_eq!(
        (dst.rows(), dst.cols()),
        (src.rows(), src.cols()),
        "polyak shape mismatch"
    );
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d = tau * s + (1.0 - tau) * *d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(4, 3, Activation::Relu, &mut rng);
        let x = Matrix::zeros(5, 4);
        let (y, cache) = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        assert_eq!(
            (cache.pre_activation.rows(), cache.pre_activation.cols()),
            (5, 3)
        );
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.3);
        let (y, _) = layer.forward(&x);
        assert_eq!(y, layer.infer(&x));
    }

    #[test]
    fn backward_gradients_match_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| 0.1 + 0.2 * (r * 3 + c) as f64);
        // Loss = sum of outputs, so grad_output = ones.
        let loss = |l: &Dense| l.infer(&x).as_slice().iter().sum::<f64>();
        let (y, cache) = layer.forward(&x);
        let ones = Matrix::full(y.rows(), y.cols(), 1.0);
        let (grad_x, grads) = layer.backward(&cache, &ones);

        let h = 1e-6;
        // Check a few weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 1)] {
            let mut lp = layer.clone();
            lp.weight.set(r, c, lp.weight.get(r, c) + h);
            let mut lm = layer.clone();
            lm.weight.set(r, c, lm.weight.get(r, c) - h);
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!(
                (grads.weight.get(r, c) - numeric).abs() < 1e-5,
                "dW[{r},{c}]: {} vs {numeric}",
                grads.weight.get(r, c)
            );
        }
        // Check bias.
        for c in 0..2 {
            let mut lp = layer.clone();
            lp.bias.set(0, c, lp.bias.get(0, c) + h);
            let mut lm = layer.clone();
            lm.bias.set(0, c, lm.bias.get(0, c) - h);
            let numeric = (loss(&lp) - loss(&lm)) / (2.0 * h);
            assert!((grads.bias.get(0, c) - numeric).abs() < 1e-5);
        }
        // Check input gradient.
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut xp = x.clone();
            xp.set(r, c, xp.get(r, c) + h);
            let mut xm = x.clone();
            xm.set(r, c, xm.get(r, c) - h);
            let numeric = (layer.infer(&xp).as_slice().iter().sum::<f64>()
                - layer.infer(&xm).as_slice().iter().sum::<f64>())
                / (2.0 * h);
            assert!((grad_x.get(r, c) - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn soft_update_interpolates() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = Dense::new(2, 2, Activation::Identity, &mut rng);
        let b = Dense::new(2, 2, Activation::Identity, &mut rng);
        let before = a.weight.get(0, 0);
        let target = b.weight.get(0, 0);
        a.soft_update_from(&b, 0.25);
        let after = a.weight.get(0, 0);
        assert!((after - (0.25 * target + 0.75 * before)).abs() < 1e-12);
    }

    #[test]
    fn output_head_small_init_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let head = Dense::with_bound(64, 1, Activation::Identity, 3e-3, &mut rng);
        assert!(head.weight.as_slice().iter().all(|v| v.abs() < 3e-3));
    }
}
