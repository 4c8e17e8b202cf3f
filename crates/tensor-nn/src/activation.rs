//! Activation functions and their derivatives.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Activation applied element-wise after a dense layer's affine transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — hidden layers.
    Relu,
    /// Hyperbolic tangent — actor output heads squashing to (-1, 1).
    Tanh,
    /// Logistic sigmoid — actor output heads squashing to (0, 1), matching
    /// the paper's `[0,1]`-normalized knob actions.
    Sigmoid,
    /// No-op — critic Q-value heads.
    Identity,
}

impl Activation {
    /// Apply the activation to every entry of `z`.
    pub fn forward(self, z: &Matrix) -> Matrix {
        let mut out = z.clone();
        self.forward_inplace(&mut out);
        out
    }

    /// Apply the activation to every entry of `z` in place (`Identity`
    /// leaves it untouched).
    pub fn forward_inplace(self, z: &mut Matrix) {
        match self {
            Activation::Relu => z.map_inplace(|v| if v > 0.0 { v } else { 0.0 }),
            Activation::Tanh => z.map_inplace(f64::tanh),
            Activation::Sigmoid => z.map_inplace(sigmoid),
            Activation::Identity => {}
        }
    }

    /// Derivative evaluated from the *pre-activation* `z`.
    pub fn derivative(self, z: &Matrix) -> Matrix {
        match self {
            Activation::Relu => z.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => z.map(|v| {
                let t = v.tanh();
                1.0 - t * t
            }),
            Activation::Sigmoid => z.map(|v| {
                let s = sigmoid(v);
                s * (1.0 - s)
            }),
            Activation::Identity => Matrix::full(z.rows(), z.cols(), 1.0),
        }
    }
}

#[inline]
fn sigmoid(v: f64) -> f64 {
    // Split on sign to avoid exp overflow for large negative inputs.
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(a: Activation, x: f64) -> f64 {
        let h = 1e-6;
        let m1 = Matrix::from_vec(1, 1, vec![x + h]);
        let m0 = Matrix::from_vec(1, 1, vec![x - h]);
        (a.forward(&m1).get(0, 0) - a.forward(&m0).get(0, 0)) / (2.0 * h)
    }

    #[test]
    fn derivatives_match_numeric() {
        for &a in &[Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &[-3.0, -0.7, 0.1, 2.5] {
                let z = Matrix::from_vec(1, 1, vec![x]);
                let analytic = a.derivative(&z).get(0, 0);
                let numeric = numeric_derivative(a, x);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{a:?} at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_matches_away_from_kink() {
        for &x in &[-2.0, -0.5, 0.5, 2.0] {
            let z = Matrix::from_vec(1, 1, vec![x]);
            let analytic = Activation::Relu.derivative(&z).get(0, 0);
            let numeric = numeric_derivative(Activation::Relu, x);
            assert!((analytic - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let z = Matrix::from_vec(1, 2, vec![-1000.0, 1000.0]);
        let s = Activation::Sigmoid.forward(&z);
        assert!(s.get(0, 0) >= 0.0 && s.get(0, 0) < 1e-12);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-12);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn tanh_bounds() {
        let z = Matrix::from_vec(1, 3, vec![-50.0, 0.0, 50.0]);
        let t = Activation::Tanh.forward(&z);
        assert!((t.get(0, 0) + 1.0).abs() < 1e-9);
        assert_eq!(t.get(0, 1), 0.0);
        assert!((t.get(0, 2) - 1.0).abs() < 1e-9);
    }
}
