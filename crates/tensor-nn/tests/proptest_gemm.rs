//! Property tests of the register-tiled forward GEMM: every output equals
//! the plain dot product (one accumulator from `0.0`, `k` ascending) bit
//! for bit, for any shape and any entries, and a network's batched
//! inference equals its one-row inference row by row.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor_nn::{Activation, Matrix, Mlp};

/// Cases per property; CI prints this figure next to the property count.
const CASES: u32 = 256;

/// Entries that stress the summation order: NaN, ±inf, ±0.0, subnormals
/// and the largest finite value (overflow), mixed into ordinary values.
const SPECIAL: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MIN_POSITIVE / 3.0,
    -5e-324,
    f64::MAX,
];

fn random_matrix(rows: usize, cols: usize, special: f64, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(special) {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            rng.gen_range(-10.0..10.0)
        }
    })
}

/// The reference order the kernel promises for `a · bᵀ`.
fn dot_reference(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0;
        for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
            acc += x * y;
        }
        acc
    })
}

/// Bit equality, except that any NaN equals any NaN: Rust does not fix
/// which NaN payload an operation on two NaNs returns.
fn assert_same_bits(got: &Matrix, want: &Matrix) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (k, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "entry {k}: {x:e} ({:#x}) vs reference {y:e} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn tiled_gemm_equals_the_dot_reference_bit_for_bit(
        rows in 1usize..10,
        inner in 0usize..14,
        cols in 0usize..14,
        special in 0.0f64..0.3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(rows, inner, special, &mut rng);
        let b = random_matrix(cols, inner, special, &mut rng);
        assert_same_bits(&a.matmul_transpose_b(&b), &dot_reference(&a, &b));
    }

    #[test]
    fn bias_epilogue_adds_after_the_full_sum(
        rows in 1usize..10,
        inner in 0usize..14,
        cols in 1usize..14,
        special in 0.0f64..0.3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(rows, inner, special, &mut rng);
        let b = random_matrix(cols, inner, special, &mut rng);
        let bias = random_matrix(1, cols, special, &mut rng);
        let reference = dot_reference(&a, &b);
        let want = Matrix::from_fn(rows, cols, |i, j| reference.get(i, j) + bias.get(0, j));
        assert_same_bits(&a.matmul_transpose_b_bias(&b, &bias), &want);
    }

    #[test]
    fn batched_inference_equals_one_row_inference(
        rows in 1usize..10,
        input in 1usize..14,
        hidden in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[input, hidden, hidden, 1], Activation::Relu, Activation::Identity, &mut rng);
        let batch = random_matrix(rows, input, 0.0, &mut rng);
        let together = net.infer(&batch);
        for r in 0..rows {
            let alone = net.infer(&Matrix::row_vector(batch.row(r)));
            assert_same_bits(&Matrix::row_vector(together.row(r)), &alone);
        }
    }
}
