//! Property tests of the binary codec behind every durable payload
//! (commitlog records, snapshots, model files): encoding then decoding
//! is the identity on arbitrary `Value` trees — floats compared by bit
//! pattern — and decoding untrusted bytes never panics, never accepts a
//! truncated or over-long input, and never trusts a length field beyond
//! the bytes that remain.

use deepcat::codec::{decode_value, encode_value, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Floats whose text round trip is lossy or special: NaN payloads,
/// signed zero, infinities, subnormals, extremes.
const SPECIAL_F64_BITS: &[u64] = &[
    0x7FF8_0000_0000_0000, // canonical quiet NaN
    0x7FF8_0000_0000_0001, // quiet NaN with a payload
    0xFFF4_0000_DEAD_BEEF, // negative signalling NaN with a payload
    0x8000_0000_0000_0000, // -0.0
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
    0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
];

const KEY_CHARS: &[char] = &[
    'a', 'z', '_', 'é', 'ß', '日', '本', '🦀', '\u{0}', '"', '\n',
];

fn arb_f64(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.3) {
        f64::from_bits(SPECIAL_F64_BITS[rng.gen_range(0..SPECIAL_F64_BITS.len())])
    } else {
        f64::from_bits(rng.gen::<u64>())
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..6usize);
    (0..len)
        .map(|_| KEY_CHARS[rng.gen_range(0..KEY_CHARS.len())])
        .collect()
}

fn arb_leaf(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::I64(match rng.gen_range(0..3u32) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen::<u64>() as i64,
        }),
        3 => Value::U64(if rng.gen_bool(0.5) {
            u64::MAX
        } else {
            rng.gen::<u64>()
        }),
        4 => Value::Str(arb_string(rng)),
        _ => Value::F64(arb_f64(rng)),
    }
}

/// An arbitrary tree at most `depth` containers deep: nested maps and
/// sequences, empty, mixed and all-float sequences, unicode (and
/// repeated) keys.
fn arb_value(rng: &mut StdRng, depth: usize) -> Value {
    if depth == 0 || rng.gen_bool(0.35) {
        return arb_leaf(rng);
    }
    let len = rng.gen_range(0..5usize);
    match rng.gen_range(0..3u32) {
        0 => Value::Seq((0..len).map(|_| arb_value(rng, depth - 1)).collect()),
        1 => Value::Seq((0..len).map(|_| Value::F64(arb_f64(rng))).collect()),
        _ => Value::Map(
            (0..len)
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Structural equality with floats compared by bit pattern, so NaN
/// payloads and signed zeros count.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// Whatever `decode_value` accepts is a well-formed tree: it re-encodes
/// and decodes back to itself.
fn assert_well_formed(decoded: &Value) {
    let bytes = encode_value(decoded).expect("decoded trees respect the depth bound");
    let again = decode_value(&bytes).expect("re-encoded tree decodes");
    assert!(same(decoded, &again), "re-decoded tree differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, bit for bit, and the encoding is
    /// canonical (re-encoding the decoded tree gives the same bytes).
    #[test]
    fn encode_decode_is_the_identity(seed in 0u64..u64::MAX, depth in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = arb_value(&mut rng, depth);
        let bytes = encode_value(&value).expect("encode");
        let back = decode_value(&bytes).expect("decode");
        prop_assert!(same(&value, &back), "{value:?} came back as {back:?}");
        prop_assert_eq!(encode_value(&back).expect("re-encode"), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strict prefix of a valid encoding is rejected, and every
    /// single-bit flip either is rejected or yields a well-formed tree
    /// (the codec has no checksum of its own; the frame's CRC is what
    /// catches flips that stay well-formed). Nothing panics.
    #[test]
    fn truncations_and_bit_flips_never_panic(seed in 0u64..u64::MAX, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = encode_value(&arb_value(&mut rng, depth)).expect("encode");
        for cut in 0..bytes.len() {
            prop_assert!(decode_value(&bytes[..cut]).is_none(), "prefix of {cut} bytes accepted");
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                if let Some(v) = decode_value(&flipped) {
                    assert_well_formed(&v);
                }
            }
        }
    }

    /// Arbitrary bytes — biased towards container tags and huge length
    /// fields — never panic and never make the decoder allocate from a
    /// length the input cannot back: a `u32::MAX`-element sequence of
    /// `Value`s would be a >100 GiB reservation and abort the test.
    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => rng.gen_range(6..=9u8),
                1 => 0xFF,
                _ => rng.gen::<u32>() as u8,
            })
            .collect();
        if let Some(v) = decode_value(&bytes) {
            assert_well_formed(&v);
        }
    }
}

#[test]
fn huge_length_fields_are_rejected_before_allocating() {
    for tag in [6u8, 7, 8, 9] {
        for len in [u32::MAX, 1 << 31, 1 << 20, 2] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.push(0);
            assert_eq!(decode_value(&bytes), None, "tag {tag} len {len}");
        }
    }
}

#[test]
fn nesting_beyond_the_depth_bound_is_rejected() {
    let nested = |levels: usize| {
        let mut bytes = Vec::new();
        for _ in 0..levels {
            bytes.extend_from_slice(&[7, 1, 0, 0, 0]); // Seq of one element
        }
        bytes.push(0); // Null
        bytes
    };
    assert!(decode_value(&nested(MAX_DEPTH)).is_some());
    assert_eq!(decode_value(&nested(MAX_DEPTH + 1)), None);
    // Far beyond the bound: rejected, not a stack overflow.
    assert_eq!(decode_value(&nested(100_000)), None);
}

#[test]
fn invalid_utf8_is_rejected() {
    // A string value, then a map key.
    assert_eq!(decode_value(&[6, 1, 0, 0, 0, 0xFF]), None);
    assert_eq!(
        decode_value(&[8, 1, 0, 0, 0, 2, 0, 0, 0, 0xC3, 0x28, 0]),
        None
    );
    assert_eq!(
        decode_value(&[6, 2, 0, 0, 0, 0xC3, 0xA9]),
        Some(Value::Str("é".into()))
    );
}

#[test]
fn trailing_bytes_and_unknown_tags_are_rejected() {
    let mut bytes = encode_value(&Value::Seq(vec![Value::F64(1.0)])).expect("encode");
    assert!(decode_value(&bytes).is_some());
    bytes.push(0);
    assert_eq!(decode_value(&bytes), None);
    assert_eq!(decode_value(&[]), None);
    for tag in 10..=255u8 {
        assert_eq!(decode_value(&[tag]), None, "tag {tag}");
    }
}
