//! Vectorized batch encoding for numeric record streams.
//!
//! The per-record [`RecordWriter`](crate::RecordWriter) pays, for every
//! record: a fresh output `Vec`, a schema type check per field, a
//! dynamic [`Value`](crate::Value) match per field, and a grow check per
//! byte written. Monitoring hot paths (a dissemination daemon draining
//! thousands of interaction records per wake) encode the *same*
//! all-numeric schema over and over, so all of that is loop-invariant:
//!
//! * [`BatchEncoder::new`] validates the schema **once** and freezes the
//!   per-field wire kinds — the encode loop has no type checks left.
//! * [`encode_batch_into`] reserves worst-case capacity for the whole
//!   batch up front, hoisting every grow/bounds check out of the
//!   per-value loop, and encodes row-major raw values (the same `i64`
//!   bit convention as digest raw rows) straight into one reusable
//!   output buffer.
//! * All-`U64` schemas — the interaction-record hot case — take a
//!   monomorphic inner loop with no per-field kind dispatch at all.
//!
//! Output bytes are **identical** to a `RecordWriter` run per row (the
//! tests pin this), so receivers cannot tell which path encoded a
//! record; the batch form is purely a producer-side optimization.
//!
//! The receive side has the twin: [`BatchEncoder::decode_row_into`]
//! decodes one record straight into a reusable raw row with the same
//! frozen kinds, so a subscriber of a numeric schema never builds a
//! [`Value`](crate::Value) per field. Its values and errors are those
//! of [`RecordReader::read_all`](crate::RecordReader::read_all).

use crate::schema::{FieldType, Schema};
use crate::PbioError;

/// Per-field wire kind with the schema validation already spent.
/// `repr(u8)` and kind-only (no names) so the encode loop's dispatch
/// table is a dense byte array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    U64,
    I64,
    F64,
    Bool,
}

/// A schema compiled for raw-row coding: field kinds frozen, type
/// checks hoisted out of the encode and decode loops. Build once per
/// schema, reuse for every batch. Two encoders are equal exactly when
/// their schemas have the same field types in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEncoder {
    kinds: Box<[Kind]>,
    /// Every field is `U64` — the interaction-record hot case, which
    /// takes a dispatch-free inner loop.
    all_u64: bool,
}

impl BatchEncoder {
    /// Compiles `schema` for batch encoding.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadSchema`] if the schema has `Str`/`Bytes` fields —
    /// variable-length payloads have no raw-row form; such records keep
    /// using [`RecordWriter`](crate::RecordWriter).
    pub fn new(schema: &Schema) -> Result<BatchEncoder, PbioError> {
        let kinds = schema
            .fields()
            .iter()
            .map(|f| match f.ty {
                FieldType::U64 => Ok(Kind::U64),
                FieldType::I64 => Ok(Kind::I64),
                FieldType::F64 => Ok(Kind::F64),
                FieldType::Bool => Ok(Kind::Bool),
                FieldType::Str | FieldType::Bytes => Err(PbioError::BadSchema(format!(
                    "batch encoding requires numeric/bool fields; `{}` is {:?}",
                    f.name, f.ty
                ))),
            })
            .collect::<Result<Box<[Kind]>, PbioError>>()?;
        let all_u64 = kinds.iter().all(|&k| k == Kind::U64);
        Ok(BatchEncoder { kinds, all_u64 })
    }

    /// Raw values per row (= schema field count).
    pub fn stride(&self) -> usize {
        self.kinds.len()
    }

    /// Encodes one raw row (see [`encode_batch_into`] for the bit
    /// convention), appending to `out`. The single-record form the
    /// publish hot path uses; byte-identical to a `RecordWriter`.
    ///
    /// # Errors
    ///
    /// [`PbioError::MissingFields`] if `row` is not exactly one stride.
    pub fn encode_row_into(&self, row: &[i64], out: &mut Vec<u8>) -> Result<(), PbioError> {
        if row.len() != self.stride() {
            return Err(PbioError::MissingFields {
                got: row.len(),
                want: self.stride(),
            });
        }
        out.reserve(row.len() * MAX_VALUE_BYTES);
        encode_row(&self.kinds, self.all_u64, row, out);
        Ok(())
    }

    /// Decodes one record from `buf` into `row` (cleared first), in the
    /// raw-value bit convention of [`encode_batch_into`]. The decode twin
    /// of [`encode_row_into`](Self::encode_row_into): values, errors and
    /// the tolerance of trailing bytes after the last field are exactly
    /// those of [`RecordReader::read_all`](crate::RecordReader::read_all)
    /// on the same schema. `row`'s capacity is reused, so a warm row
    /// decodes without allocating.
    ///
    /// # Errors
    ///
    /// [`PbioError::UnexpectedEof`] if `buf` ends mid-record;
    /// [`PbioError::BadVarint`] on a varint longer than 10 bytes. `row`
    /// holds the fields decoded before the error.
    pub fn decode_row_into(&self, mut buf: &[u8], row: &mut Vec<i64>) -> Result<(), PbioError> {
        row.clear();
        row.reserve(self.stride());
        if self.all_u64 {
            for _ in 0..self.stride() {
                row.push(get_varint(&mut buf)? as i64);
            }
            return Ok(());
        }
        for &k in self.kinds.iter() {
            let v = match k {
                Kind::U64 => get_varint(&mut buf)? as i64,
                Kind::I64 => crate::varint::zigzag_decode(get_varint(&mut buf)?),
                Kind::F64 => {
                    let Some((bytes, rest)) = buf.split_first_chunk::<8>() else {
                        return Err(PbioError::UnexpectedEof);
                    };
                    buf = rest;
                    u64::from_le_bytes(*bytes) as i64
                }
                Kind::Bool => {
                    let Some((&b, rest)) = buf.split_first() else {
                        return Err(PbioError::UnexpectedEof);
                    };
                    buf = rest;
                    (b != 0) as i64
                }
            };
            row.push(v);
        }
        Ok(())
    }
}

/// Worst-case encoded bytes per value (a 10-byte varint dominates the
/// 8-byte fixed double and 1-byte bool).
const MAX_VALUE_BYTES: usize = 10;

/// Encodes `rows` — row-major raw values, [`BatchEncoder::stride`] per
/// record — into `out`, appending each record's **end offset** (within
/// `out`) to `offsets` so callers can frame records individually.
///
/// The raw-value bit convention matches E-Code digest raw rows: a `U64`
/// or `I64` field holds the integer itself (width-extended), an `F64`
/// field holds `f64::to_bits` reinterpreted as `i64`, a `Bool` field is
/// nonzero-for-true. Bytes appended to `out` are identical to running a
/// [`RecordWriter`](crate::RecordWriter) per row.
///
/// `out` and `offsets` are *appended to*, not cleared — callers reuse
/// them across batches and drain at their own pace.
///
/// # Errors
///
/// [`PbioError::MissingFields`] if `rows` is not a whole number of
/// records. Nothing is written on error.
pub fn encode_batch_into(
    enc: &BatchEncoder,
    rows: &[i64],
    out: &mut Vec<u8>,
    offsets: &mut Vec<usize>,
) -> Result<(), PbioError> {
    let stride = enc.stride();
    if stride == 0 || !rows.len().is_multiple_of(stride) {
        return Err(PbioError::MissingFields {
            got: rows.len() % stride.max(1),
            want: stride,
        });
    }
    // One reservation for the whole batch: every grow check inside the
    // per-value loop below is dead (capacity is proven sufficient), so
    // the loop body is pure compute + append.
    out.reserve(rows.len() * MAX_VALUE_BYTES);
    offsets.reserve(rows.len() / stride);

    if enc.all_u64 {
        // Monomorphic hot loop: no kind dispatch, just varints.
        for row in rows.chunks_exact(stride) {
            for &v in row {
                put_varint(out, v as u64);
            }
            offsets.push(out.len());
        }
    } else {
        for row in rows.chunks_exact(stride) {
            encode_row(&enc.kinds, false, row, out);
            offsets.push(out.len());
        }
    }
    Ok(())
}

/// Encodes one row; `row.len() == kinds.len()` is the caller's
/// invariant, and capacity for the worst case is already reserved.
#[inline]
fn encode_row(kinds: &[Kind], all_u64: bool, row: &[i64], out: &mut Vec<u8>) {
    if all_u64 {
        for &v in row {
            put_varint(out, v as u64);
        }
        return;
    }
    for (&k, &v) in kinds.iter().zip(row) {
        match k {
            Kind::U64 => put_varint(out, v as u64),
            Kind::I64 => put_varint(out, crate::varint::zigzag_encode(v)),
            // Raw bits are already `f64::to_bits`; LE bytes match
            // `RecordWriter::push_f64`'s `put_f64_le`.
            Kind::F64 => out.extend_from_slice(&(v as u64).to_le_bytes()),
            Kind::Bool => out.push((v != 0) as u8),
        }
    }
}

/// LEB128 append tuned for the batch loop: one-byte values (the common
/// case for monitoring metrics) short-circuit; longer ones fill a stack
/// scratch and land in a single `extend_from_slice` instead of a
/// checked push per byte. Byte output is identical to
/// [`write_u64`](crate::varint::write_u64).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    let mut scratch = [0u8; MAX_VALUE_BYTES];
    let mut i = 0usize;
    while v >= 0x80 {
        scratch[i] = (v as u8) | 0x80;
        v >>= 7;
        i += 1;
    }
    scratch[i] = v as u8;
    out.extend_from_slice(&scratch[..=i]);
}

/// LEB128 read over a byte slice, advancing it. Same results and errors
/// as [`read_u64`](crate::varint::read_u64), including the high bits a
/// tenth byte shifts out, with the one-byte case short-circuited. Kept
/// apart from the generic `Buf` reader for speed: decoding through
/// `read_u64` instead cost 8–11% of `gpa_fanin`'s end-to-end records/s
/// (two paired runs on a 2-core host).
#[inline]
fn get_varint(buf: &mut &[u8]) -> Result<u64, PbioError> {
    if let Some((&b, rest)) = buf.split_first() {
        if b < 0x80 {
            *buf = rest;
            return Ok(b as u64);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(PbioError::UnexpectedEof);
        };
        *buf = rest;
        if shift >= 64 {
            return Err(PbioError::BadVarint);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordReader, RecordWriter, Value};
    use crate::varint::write_u64;
    use proptest::prelude::*;

    fn numeric_schema() -> Schema {
        Schema::build("mix")
            .field("a", FieldType::U64)
            .field("b", FieldType::I64)
            .field("c", FieldType::F64)
            .field("d", FieldType::Bool)
            .finish()
            .unwrap()
    }

    /// Reference encoding: one RecordWriter per row.
    fn reference(schema: &Schema, rows: &[i64]) -> (Vec<u8>, Vec<usize>) {
        let (mut out, mut offsets) = (Vec::new(), Vec::new());
        for row in rows.chunks_exact(schema.len()) {
            let mut w = RecordWriter::new(schema);
            for (f, &v) in schema.fields().iter().zip(row) {
                match f.ty {
                    FieldType::U64 => w.push_u64(v as u64).map(|_| ()).unwrap(),
                    FieldType::I64 => w.push_i64(v).map(|_| ()).unwrap(),
                    FieldType::F64 => w.push_f64(f64::from_bits(v as u64)).map(|_| ()).unwrap(),
                    FieldType::Bool => w.push_bool(v != 0).map(|_| ()).unwrap(),
                    _ => unreachable!(),
                }
            }
            out.extend_from_slice(&w.finish().unwrap());
            offsets.push(out.len());
        }
        (out, offsets)
    }

    #[test]
    fn batch_bytes_identical_to_record_writer() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..257i64 {
            rows.extend_from_slice(&[
                i * 1_000_003,                     // U64 spanning several varint lengths
                -i * 7 + 3,                        // I64 both signs
                (0.5 + i as f64).to_bits() as i64, // F64 raw bits
                i % 3,                             // Bool, non-canonical truthiness
            ]);
        }
        let (mut out, mut offsets) = (Vec::new(), Vec::new());
        encode_batch_into(&enc, &rows, &mut out, &mut offsets).unwrap();
        let (want, want_offsets) = reference(&schema, &rows);
        assert_eq!(out, want);
        assert_eq!(offsets, want_offsets);
    }

    #[test]
    fn all_u64_fast_path_identical_too() {
        let schema = Schema::build("u")
            .field("a", FieldType::U64)
            .field("b", FieldType::U64)
            .field("c", FieldType::U64)
            .finish()
            .unwrap();
        let enc = BatchEncoder::new(&schema).unwrap();
        let rows: Vec<i64> = (0..300)
            .map(|i| (i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64))
            .collect();
        let (mut out, mut offsets) = (Vec::new(), Vec::new());
        encode_batch_into(&enc, &rows, &mut out, &mut offsets).unwrap();
        let (want, want_offsets) = reference(&schema, &rows);
        assert_eq!(out, want);
        assert_eq!(offsets, want_offsets);
    }

    #[test]
    fn appends_without_clearing() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let mut out = vec![0xEE];
        let mut offsets = vec![1usize];
        encode_batch_into(&enc, &[1, -1, 0, 1], &mut out, &mut offsets).unwrap();
        assert_eq!(out[0], 0xEE);
        assert_eq!(offsets[0], 1);
        assert_eq!(*offsets.last().unwrap(), out.len());
    }

    #[test]
    fn ragged_batch_rejected() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let (mut out, mut offsets) = (Vec::new(), Vec::new());
        assert_eq!(
            encode_batch_into(&enc, &[1, 2, 3], &mut out, &mut offsets),
            Err(PbioError::MissingFields { got: 3, want: 4 })
        );
        assert!(out.is_empty() && offsets.is_empty());
    }

    #[test]
    fn string_schema_rejected_at_build() {
        let schema = Schema::build("s")
            .field("a", FieldType::U64)
            .field("s", FieldType::Str)
            .finish()
            .unwrap();
        assert!(matches!(
            BatchEncoder::new(&schema),
            Err(PbioError::BadSchema(_))
        ));
    }

    #[test]
    fn single_row_form_matches_batch() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let row = [77, -5, 1.25f64.to_bits() as i64, 0];
        let mut single = Vec::new();
        enc.encode_row_into(&row, &mut single).unwrap();
        let (mut batch, mut offsets) = (Vec::new(), Vec::new());
        encode_batch_into(&enc, &row, &mut batch, &mut offsets).unwrap();
        assert_eq!(single, batch);
        assert_eq!(
            enc.encode_row_into(&row[..2], &mut single),
            Err(PbioError::MissingFields { got: 2, want: 4 })
        );
    }

    #[test]
    fn put_varint_matches_write_u64_at_length_edges() {
        // Every varint length boundary: 7-bit steps plus the extremes.
        let mut probes = vec![0u64, 1, 0x7F, 0x80, u64::MAX];
        for shift in 1..10u32 {
            probes.push((1u64 << (7 * shift)) - 1);
            probes.push(1u64 << (7 * shift));
        }
        for v in probes {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            put_varint(&mut a, v);
            write_u64(&mut b, v);
            assert_eq!(a, b, "divergence at {v}");
        }
    }

    /// A schema of the given kinds (0 = U64, 1 = I64, 2 = F64, 3 = Bool).
    fn schema_of(kinds: &[u8]) -> Schema {
        let types = [
            FieldType::U64,
            FieldType::I64,
            FieldType::F64,
            FieldType::Bool,
        ];
        kinds
            .iter()
            .enumerate()
            .fold(Schema::build("p"), |b, (i, &k)| {
                b.field(&format!("f{i}"), types[k as usize % 4])
            })
            .finish()
            .unwrap()
    }

    /// The oracle: `RecordReader::read_all`, mapped to raw bits.
    fn read_all_raw(schema: &Schema, bytes: &[u8]) -> Result<Vec<i64>, PbioError> {
        let values = RecordReader::new(schema, bytes).read_all()?;
        Ok(values
            .iter()
            .map(|v| match *v {
                Value::U64(x) => x as i64,
                Value::I64(x) => x,
                Value::F64(x) => x.to_bits() as i64,
                Value::Bool(b) => b as i64,
                Value::Str(_) | Value::Bytes(_) => unreachable!("numeric schema"),
            })
            .collect())
    }

    fn decode_raw(schema: &Schema, bytes: &[u8]) -> Result<Vec<i64>, PbioError> {
        let mut row = vec![-1; 3]; // stale contents must not leak through
        BatchEncoder::new(schema)
            .unwrap()
            .decode_row_into(bytes, &mut row)
            .map(|()| row)
    }

    #[test]
    fn decode_row_round_trips_and_tolerates_trailing_bytes() {
        let schema = numeric_schema();
        let enc = BatchEncoder::new(&schema).unwrap();
        let row = [u64::MAX as i64, i64::MIN, (-0.0f64).to_bits() as i64, 1];
        let mut bytes = Vec::new();
        enc.encode_row_into(&row, &mut bytes).unwrap();
        assert_eq!(decode_raw(&schema, &bytes), Ok(row.to_vec()));
        bytes.extend_from_slice(&[0xFF, 0x00]);
        assert_eq!(decode_raw(&schema, &bytes), Ok(row.to_vec()));
    }

    #[test]
    fn decode_row_errors_match_read_all() {
        let u = Schema::build("u")
            .field("a", FieldType::U64)
            .finish()
            .unwrap();
        // Ten continuation bytes then a terminator: an eleventh byte.
        let mut overlong = vec![0x80u8; 10];
        overlong.push(0x01);
        assert_eq!(decode_raw(&u, &overlong), Err(PbioError::BadVarint));
        // Ten bytes whose last shifts bits out of a u64: a value, not an
        // error, exactly as `read_u64` decodes it.
        let mut ten = vec![0xFFu8; 9];
        ten.push(0x7F);
        assert_eq!(decode_raw(&u, &ten), read_all_raw(&u, &ten));
        assert_eq!(decode_raw(&u, &ten[..4]), Err(PbioError::UnexpectedEof));
        assert_eq!(decode_raw(&u, &[]), Err(PbioError::UnexpectedEof));
        let f = Schema::build("f")
            .field("a", FieldType::F64)
            .finish()
            .unwrap();
        assert_eq!(decode_raw(&f, &[0; 7]), Err(PbioError::UnexpectedEof));
        let b = Schema::build("b")
            .field("a", FieldType::Bool)
            .finish()
            .unwrap();
        assert_eq!(decode_raw(&b, &[]), Err(PbioError::UnexpectedEof));
        assert_eq!(decode_raw(&b, &[7]), Ok(vec![1]));
    }

    proptest! {
        /// The raw-row decoder is `RecordReader::read_all` in raw bits:
        /// same values and same error on intact records, truncated ones,
        /// records with an over-long varint spliced in, records with
        /// trailing bytes, and arbitrary bytes.
        #[test]
        fn prop_decode_row_matches_read_all(
            kinds in proptest::collection::vec(0u8..4, 1..12),
            raw in proptest::collection::vec(any::<i64>(), 12),
            widths in proptest::collection::vec(0u32..64, 12),
            at in any::<usize>(),
            noise in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let schema = schema_of(&kinds);
            // Mix short and long varints: shift each value down to a
            // random width.
            let row: Vec<i64> = raw
                .iter()
                .zip(&widths)
                .take(kinds.len())
                .map(|(&v, &w)| v >> w)
                .collect();
            let mut record = Vec::new();
            BatchEncoder::new(&schema)
                .unwrap()
                .encode_row_into(&row, &mut record)
                .unwrap();
            for mode in 0..5 {
                let mut bytes = record.clone();
                match mode {
                    0 => {}
                    1 => bytes.truncate(at % (bytes.len() + 1)),
                    2 => {
                        let mut overlong = vec![0x80u8 | noise.len() as u8; 10 + at % 3];
                        overlong.push(0x01);
                        let pos = at % (bytes.len() + 1);
                        bytes.splice(pos..pos, overlong);
                    }
                    3 => bytes.extend_from_slice(&noise),
                    _ => bytes.clone_from(&noise),
                }
                let got = decode_raw(&schema, &bytes);
                let want = read_all_raw(&schema, &bytes);
                prop_assert_eq!(&got, &want, "mode {}: {:?} vs {:?}", mode, got, want);
            }
        }

        /// Batch encoding is byte-identical to per-record RecordWriter
        /// encoding for arbitrary numeric rows.
        #[test]
        fn prop_batch_matches_record_writer(
            raw in proptest::collection::vec(any::<i64>(), 0..25 * 4)
        ) {
            let rows = &raw[..raw.len() - raw.len() % 4];
            let schema = numeric_schema();
            let enc = BatchEncoder::new(&schema).unwrap();
            let (mut out, mut offsets) = (Vec::new(), Vec::new());
            encode_batch_into(&enc, rows, &mut out, &mut offsets).unwrap();
            let (want, want_offsets) = reference(&schema, rows);
            prop_assert_eq!(out, want);
            prop_assert_eq!(offsets, want_offsets);
        }
    }
}
