//! Binary codec for every durable payload: commitlog step records,
//! commitlog snapshots and model files (DESIGN.md §15).
//!
//! The derived `Serialize`/`Deserialize` impls stay the only schema: a
//! value is turned into the vendored [`serde::Value`] tree, and this
//! module writes that tree as tagged little-endian binary. One byte of
//! tag precedes every node:
//!
//! ```text
//! tag  node         body
//! 0    Null         -
//! 1    Bool(false)  -
//! 2    Bool(true)   -
//! 3    I64          i64 LE
//! 4    U64          u64 LE
//! 5    F64          f64::to_bits() as u64 LE
//! 6    Str          len: u32 LE, UTF-8 bytes
//! 7    Seq          count: u32 LE, count nodes
//! 8    Map          count: u32 LE, count × (key len: u32 LE, key UTF-8, node)
//! 9    F64 Seq      count: u32 LE, count × f64::to_bits() as u64 LE
//! ```
//!
//! A non-empty sequence whose elements are all `F64` is written as tag 9:
//! no per-element tag, just the raw words — the shape of every weight
//! matrix. Floats are stored as their bit patterns, so every value (NaN
//! payloads, −0.0, ±inf and subnormals included) round-trips exactly by
//! construction.
//!
//! Decoding is total: any truncation, unknown tag, invalid UTF-8,
//! nesting deeper than [`MAX_DEPTH`] or trailing byte yields `None`,
//! never a panic. A length field is checked against the bytes that remain
//! before anything is allocated from it, so a corrupt length cannot make
//! the decoder reserve more than a small multiple of its input.

use serde::{Deserialize, Serialize, Value};

/// Deepest container nesting the codec writes or reads. The derived
/// checkpoint schemas nest about eight deep; the bound keeps decoding
/// of untrusted bytes from recursing without limit.
pub const MAX_DEPTH: usize = 64;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;
const TAG_F64_SEQ: u8 = 9;

/// Encode `value` through its `Serialize` impl.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, serde::Error> {
    encode_value(&value.serialize())
}

/// Encode a [`Value`] tree. Fails only on nesting deeper than
/// [`MAX_DEPTH`] or a length that does not fit a `u32`.
pub fn encode_value(value: &Value) -> Result<Vec<u8>, serde::Error> {
    let mut out = Vec::new();
    write_value(&mut out, value, 0)?;
    Ok(out)
}

/// Decode bytes written by [`encode`] into a `T`; `None` when the bytes
/// are not exactly one well-formed tree or the tree does not fit `T`.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    T::deserialize(&decode_value(bytes)?).ok()
}

/// Decode bytes written by [`encode_value`]; `None` unless `bytes` holds
/// exactly one well-formed tree.
pub fn decode_value(bytes: &[u8]) -> Option<Value> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(0)?;
    (reader.pos == bytes.len()).then_some(value)
}

fn write_len(out: &mut Vec<u8>, len: usize) -> Result<(), serde::Error> {
    let len = u32::try_from(len)
        .map_err(|_| serde::Error::custom(format!("length {len} does not fit the codec's u32")))?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn write_str(out: &mut Vec<u8>, s: &str) -> Result<(), serde::Error> {
    write_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn write_value(out: &mut Vec<u8>, value: &Value, depth: usize) -> Result<(), serde::Error> {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_str(out, s)?;
        }
        Value::Seq(_) | Value::Map(_) if depth >= MAX_DEPTH => {
            return Err(serde::Error::custom(format!(
                "value nests deeper than the codec's {MAX_DEPTH} levels"
            )));
        }
        Value::Seq(items) => {
            if !items.is_empty() && items.iter().all(|v| matches!(v, Value::F64(_))) {
                out.push(TAG_F64_SEQ);
                write_len(out, items.len())?;
                out.reserve(items.len() * 8);
                for item in items {
                    if let Value::F64(x) = item {
                        out.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            } else {
                out.push(TAG_SEQ);
                write_len(out, items.len())?;
                for item in items {
                    write_value(out, item, depth + 1)?;
                }
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_len(out, entries.len())?;
            for (key, item) in entries {
                write_str(out, key)?;
                write_value(out, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

/// Cursor over untrusted bytes; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
    }

    fn word(&mut self) -> Option<[u8; 8]> {
        self.take(8).and_then(|b| <[u8; 8]>::try_from(b).ok())
    }

    /// A count of items at least `min_item_bytes` each, rejected before
    /// any allocation when the remaining input cannot hold them.
    fn count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_item_bytes)? <= self.remaining()).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok().map(str::to_owned)
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        Some(match self.byte()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_I64 => Value::I64(i64::from_le_bytes(self.word()?)),
            TAG_U64 => Value::U64(u64::from_le_bytes(self.word()?)),
            TAG_F64 => Value::F64(f64::from_bits(u64::from_le_bytes(self.word()?))),
            TAG_STR => Value::Str(self.string()?),
            TAG_SEQ | TAG_MAP | TAG_F64_SEQ if depth >= MAX_DEPTH => return None,
            TAG_F64_SEQ => {
                let n = self.count(8)?;
                let words = self.take(n * 8)?;
                Value::Seq(
                    words
                        .chunks_exact(8)
                        .filter_map(|w| <[u8; 8]>::try_from(w).ok())
                        .map(|w| Value::F64(f64::from_bits(u64::from_le_bytes(w))))
                        .collect(),
                )
            }
            TAG_SEQ => {
                // Every node takes at least its one tag byte.
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_MAP => {
                // Every entry takes at least a key length and a tag.
                let n = self.count(5)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Value::Map(entries)
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_layout_is_stable() {
        let v = Value::Map(vec![
            (
                "a".into(),
                Value::Seq(vec![Value::F64(1.5), Value::F64(-0.0)]),
            ),
            ("b".into(), Value::Seq(vec![Value::U64(7), Value::Null])),
        ]);
        let bytes = encode_value(&v).unwrap();
        let mut expect = vec![
            TAG_MAP,
            2,
            0,
            0,
            0,
            1,
            0,
            0,
            0,
            b'a',
            TAG_F64_SEQ,
            2,
            0,
            0,
            0,
        ];
        expect.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        expect.extend_from_slice(&[1, 0, 0, 0, b'b', TAG_SEQ, 2, 0, 0, 0, TAG_U64]);
        expect.extend_from_slice(&7u64.to_le_bytes());
        expect.push(TAG_NULL);
        assert_eq!(bytes, expect);
        assert_eq!(decode_value(&bytes), Some(v));
    }

    #[test]
    fn empty_seq_is_not_packed() {
        let bytes = encode_value(&Value::Seq(Vec::new())).unwrap();
        assert_eq!(bytes, vec![TAG_SEQ, 0, 0, 0, 0]);
    }

    #[test]
    fn depth_bound_is_symmetric() {
        let mut deep = Value::Null;
        for _ in 0..MAX_DEPTH {
            deep = Value::Seq(vec![deep]);
        }
        let bytes = encode_value(&deep).unwrap();
        assert_eq!(decode_value(&bytes), Some(deep.clone()));
        assert!(encode_value(&Value::Seq(vec![deep])).is_err());
    }
}
