//! Sharded digest evaluation: N replica instances of one E-Code
//! program, partitioned by flow key, folded back with the program's
//! [`MergePlan`].
//!
//! A *digest* is an E-Code program whose statics accumulate across
//! every ingested record — unlike a subscription [`Filter`](crate::Hub),
//! which resets its statics per record. When the verifier proves every
//! static shard-safe ([`MergePlan::fully_mergeable`]), the digest runs
//! as `shards` independent replicas; records are placed by a
//! deterministic FNV-1a hash of their flow key. Everything runs inline
//! on the caller's thread. Each replica buffers its pending records as
//! *columns* (one column of raw input bits per input the program
//! reads), and a full buffer runs through one [`ecode::BatchEval`]
//! shared by all replicas. Programs the batch compiler rejects (any
//! non-mergeable static, a division by an input) run every record
//! immediately through the scalar VM instead; non-mergeable programs
//! also collapse to one replica, so correctness never depends on the
//! caller checking the plan first.
//!
//! Reads ([`ShardedDigest::merged`], [`ShardedDigest::merged_global`],
//! [`ShardedDigest::stats`]) are the only barrier: they evaluate the
//! pending rows, then fold the replicas into the exact statics a single
//! sequential instance would hold. DESIGN.md §11 has the argument.

use std::cell::{Ref, RefCell};

use ecode::{
    BatchEval, Instance, MergeError, MergePlan, Type, Value as EValue, VerifyLimits, VerifyReport,
};
use pbio::{FieldType, Schema, Value};

use crate::PubSubError;

/// Worst-case fuel a digest program may cost per record. Same budget as
/// subscription filters: digests run on the GPA's ingest path, which is
/// hot for exactly the same reason the publish path is.
pub const DIGEST_FUEL_BUDGET: u64 = 10_000;

/// Rows a replica buffers before they run through the batch evaluator.
/// Large enough to amortize the evaluator's per-op dispatch; small
/// enough that a replica's columns stay cache-resident.
const BATCH_ROWS: usize = 4096;

/// Evaluation statistics, for overhead accounting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestStats {
    /// Shard count the caller asked for.
    pub requested_shards: usize,
    /// Shard count actually running (1 when the plan forced fallback).
    pub shards: usize,
    /// Whether the digest is running more than one replica.
    pub sharded: bool,
    /// Records ingested, total.
    pub events: u64,
    /// Records ingested per shard, in shard order.
    pub per_shard_events: Vec<u64>,
    /// Records skipped because their values did not match the schema
    /// the digest was compiled against.
    pub skipped: u64,
    /// Total E-Code fuel burned (host converts to CPU cost).
    pub fuel_spent: u64,
    /// Runs that trapped at runtime (statics may be partially updated;
    /// counted, not hidden).
    pub aborted: u64,
}

/// One shard replica: its instance plus the rows it has not evaluated
/// yet.
struct Replica {
    inst: Instance,
    /// Pending rows, structure-of-arrays in one flat allocation: the
    /// `j`-th used input occupies `pending[j * BATCH_ROWS..][..rows]`.
    /// Empty when the digest evaluates on the scalar VM.
    pending: Vec<i64>,
    rows: usize,
    events: u64,
}

/// The replicas and the evaluator they share.
struct Replicas {
    shards: Vec<Replica>,
    /// `None` when the program does not vectorize: rows then run
    /// through the scalar VM as they arrive.
    batch: Option<BatchEval>,
    /// Indices of the record fields that are program inputs, in input
    /// order.
    field_indices: Vec<usize>,
    /// `(input position, schema field index)` of every input the
    /// program reads. Only these columns are buffered.
    used: Vec<(usize, usize)>,
    /// Statically proven worst-case fuel per evaluation.
    fuel_bound: u64,
    /// Reusable program-input-ordered row for the scalar VM.
    row: Vec<i64>,
    fuel_spent: u64,
    aborted: u64,
}

impl Replicas {
    /// Feeds `rows[i * stride..][..stride]` (a full schema row) to
    /// replica `shard_ids[i]`.
    fn ingest(&mut self, shard_ids: impl Iterator<Item = usize>, rows: &[i64], stride: usize) {
        let rows = shard_ids.zip(rows.chunks_exact(stride));
        if self.batch.is_none() {
            for (s, row) in rows {
                self.row.clear();
                self.row.extend(self.field_indices.iter().map(|&i| row[i]));
                let rep = &mut self.shards[s];
                rep.events += 1;
                // Statics persist across records: that is the point of
                // a digest. A runtime trap (an input-dependent division
                // by zero, say) leaves them partially updated, exactly
                // as it would a sequential instance.
                match rep.inst.run_raw(&self.row, self.fuel_bound) {
                    Ok(out) => self.fuel_spent += out.fuel_used,
                    Err(_) => {
                        self.aborted += 1;
                        self.fuel_spent += self.fuel_bound;
                    }
                }
            }
            return;
        }
        for (s, row) in rows {
            let rep = &mut self.shards[s];
            let mut slot = rep.rows;
            for &(_, field) in &self.used {
                rep.pending[slot] = row[field];
                slot += BATCH_ROWS;
            }
            rep.rows += 1;
            rep.events += 1;
            if rep.rows == BATCH_ROWS {
                self.eval_pending(s);
            }
        }
    }

    /// Runs replica `s`'s pending rows through the shared evaluator.
    fn eval_pending(&mut self, s: usize) {
        let Some(batch) = &mut self.batch else { return };
        let Replica {
            inst,
            pending,
            rows,
            ..
        } = &mut self.shards[s];
        if *rows == 0 {
            return;
        }
        // Unread inputs get an empty column; the evaluator never
        // touches them.
        let mut cols: Vec<&[i64]> = vec![&[]; self.field_indices.len()];
        for (j, &(input, _)) in self.used.iter().enumerate() {
            cols[input] = &pending[j * BATCH_ROWS..][..*rows];
        }
        self.fuel_spent += batch.run(inst, &cols, *rows);
        *rows = 0;
    }
}

/// A compiled digest program running as one or more shard replicas.
///
/// Records' numeric and boolean fields are visible to the program as
/// E-Code inputs by field name, exactly like subscription filters;
/// string/bytes fields are skipped.
pub struct ShardedDigest {
    program: ecode::Program,
    plan: MergePlan,
    requested_shards: usize,
    n_schema_fields: usize,
    skipped: u64,
    /// Behind a `RefCell` because reads take `&self` yet must evaluate
    /// pending rows first.
    replicas: RefCell<Replicas>,
    /// Lazily computed fold of the replicas, invalidated on ingest.
    /// `merged()`/`merged_global()` sit on the stats/query path and are
    /// typically called several times between ingests; one fold serves
    /// them all.
    merged_cache: RefCell<Option<Instance>>,
}

/// Deterministic 64-bit FNV-1a over the key's little-endian bytes.
/// Chosen over `std` hashing because shard placement must be identical
/// across runs, builds, and hosts (replay bit-stability).
fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a placement hash onto `n` shards. Power-of-two counts (the
/// common configuration) take a mask instead of a hardware divide —
/// the divide's ~25-cycle latency is visible at digest ingest rates.
fn place(h: u64, n: usize) -> usize {
    if n.is_power_of_two() {
        (h & (n as u64 - 1)) as usize
    } else {
        (h % n as u64) as usize
    }
}

impl ShardedDigest {
    /// Compiles `src` against `schema` and provisions replicas.
    ///
    /// `shards` is the *requested* replica count; the digest actually
    /// shards only when the verifier proves every static shard-safe.
    /// The verification itself is ordinary (no `require_mergeable`):
    /// non-mergeable digests are legal, they just run single-instance.
    pub fn compile(
        src: &str,
        schema: &Schema,
        shards: usize,
    ) -> Result<ShardedDigest, PubSubError> {
        let mut inputs: Vec<(&str, Type)> = Vec::new();
        let mut field_indices = Vec::new();
        for (i, f) in schema.fields().iter().enumerate() {
            let ty = match f.ty {
                FieldType::U64 | FieldType::I64 => Type::Int,
                FieldType::F64 => Type::Double,
                FieldType::Bool => Type::Bool,
                FieldType::Str | FieldType::Bytes => continue,
            };
            inputs.push((f.name.as_str(), ty));
            field_indices.push(i);
        }
        let verified = ecode::verify(
            src,
            &inputs,
            &VerifyLimits::with_max_fuel(DIGEST_FUEL_BUDGET),
        )
        .map_err(PubSubError::BadFilter)?;
        let (program, report) = verified.into_parts();
        let VerifyReport {
            fuel_bound,
            merge_plan,
            ..
        } = report;
        let n = if merge_plan.fully_mergeable() {
            shards.max(1)
        } else {
            1
        };
        let batch = BatchEval::try_compile(&program, &merge_plan, fuel_bound);
        let used_inputs = program.used_inputs();
        let used: Vec<(usize, usize)> = field_indices
            .iter()
            .enumerate()
            .filter(|(input, _)| used_inputs[*input])
            .map(|(input, &field)| (input, field))
            .collect();
        let buffer = if batch.is_some() {
            used.len() * BATCH_ROWS
        } else {
            0
        };
        let replicas = Replicas {
            shards: (0..n)
                .map(|_| Replica {
                    inst: Instance::new(&program),
                    pending: vec![0; buffer],
                    rows: 0,
                    events: 0,
                })
                .collect(),
            batch,
            field_indices,
            used,
            fuel_bound,
            row: Vec::new(),
            fuel_spent: 0,
            aborted: 0,
        };
        Ok(ShardedDigest {
            program,
            plan: merge_plan,
            requested_shards: shards,
            n_schema_fields: schema.fields().len(),
            skipped: 0,
            replicas: RefCell::new(replicas),
            merged_cache: RefCell::new(None),
        })
    }

    /// Whether the plan admitted more than one replica.
    pub fn is_sharded(&self) -> bool {
        self.shard_count() > 1
    }

    /// Number of replicas actually running.
    pub fn shard_count(&self) -> usize {
        self.replicas.borrow().shards.len()
    }

    /// The shard-safety classification the replica count was decided by.
    pub fn plan(&self) -> &MergePlan {
        &self.plan
    }

    /// Statically proven worst-case fuel per record.
    pub fn fuel_bound(&self) -> u64 {
        self.replicas.borrow().fuel_bound
    }

    /// The execution tier the scalar VM runs on — `Compiled` when the
    /// program was lowered to closures, `Interpreted` when the compiled
    /// tier declined it. Every replica makes the same (deterministic) choice,
    /// and the tiers are observably identical, so `merge_from` folds
    /// stay bit-identical regardless of tier.
    pub fn tier(&self) -> ecode::ExecTier {
        self.replicas.borrow().shards[0].inst.tier()
    }

    /// Which shard a flow key lands on. Deterministic: identical across
    /// runs and shard-local (a flow's records always meet the same
    /// replica, so per-flow sequential semantics are preserved). A
    /// single replica never hashes — one shard needs no placement.
    pub fn shard_of(&self, key: u64) -> usize {
        match self.shard_count() {
            1 => 0,
            n => place(fnv1a(key), n),
        }
    }

    /// Feeds one record (dispatched by `key`) to its shard's replica.
    /// Effects become observable at the next read
    /// ([`merged`](ShardedDigest::merged) / [`stats`](ShardedDigest::stats)).
    pub fn ingest(&mut self, key: u64, values: &[Value]) {
        let mut row = vec![0; self.n_schema_fields];
        for &i in &self.replicas.get_mut().field_indices {
            row[i] = match values.get(i) {
                Some(Value::U64(v)) => *v as i64,
                Some(Value::I64(v)) => *v,
                Some(Value::F64(v)) => v.to_bits() as i64,
                Some(Value::Bool(v)) => *v as i64,
                // The record does not match the schema this digest was
                // compiled for; count and move on rather than trap.
                _ => {
                    self.skipped += 1;
                    return;
                }
            };
        }
        self.ingest_raw(key, &row);
    }

    /// Hot-path ingest: `row` holds one raw `i64` per schema field, in
    /// schema order (ints/bools as-is, doubles via `f64::to_bits`;
    /// entries at string/bytes positions are ignored). Skips the
    /// `Value` marshalling and per-field type checks of
    /// [`ingest`](ShardedDigest::ingest) — the caller owns the bit
    /// contract, which record types like `InteractionRecord::to_raw_row`
    /// satisfy by construction.
    pub fn ingest_raw(&mut self, key: u64, row: &[i64]) {
        self.ingest_raw_rows(std::slice::from_ref(&key), row);
    }

    /// Batch form of [`ingest_raw`](ShardedDigest::ingest_raw):
    /// `keys[i]` dispatches the row at `rows[i * stride..][..stride]`
    /// where `stride` is the schema field count. The per-call
    /// bookkeeping (arity check, cache invalidation) is paid once per
    /// batch.
    ///
    /// A `rows` length that is not `keys.len() * stride` skips the
    /// whole call (counted per record), mirroring the per-record
    /// arity rule.
    pub fn ingest_raw_rows(&mut self, keys: &[u64], rows: &[i64]) {
        let stride = self.n_schema_fields;
        if keys.len().checked_mul(stride) != Some(rows.len()) {
            self.skipped += keys.len() as u64;
            return;
        }
        if keys.is_empty() {
            return;
        }
        // The replicas' statics are about to change; drop the stale fold.
        self.merged_cache.get_mut().take();
        let replicas = self.replicas.get_mut();
        match replicas.shards.len() {
            1 => replicas.ingest(std::iter::repeat(0), rows, stride),
            n => replicas.ingest(keys.iter().map(|&k| place(fnv1a(k), n)), rows, stride),
        }
    }

    /// The replicas with every pending row evaluated.
    fn settled(&self) -> Ref<'_, Replicas> {
        {
            let mut replicas = self.replicas.borrow_mut();
            for s in 0..replicas.shards.len() {
                replicas.eval_pending(s);
            }
        }
        self.replicas.borrow()
    }

    /// Folds every replica's statics into a fresh instance per the plan.
    ///
    /// Pending rows are evaluated first. A fresh instance (statics at
    /// their declared initial values) is the identity element of each
    /// shard-safe fold, so folding shards into it yields exactly the
    /// sequential statics. With one replica this degenerates to a copy,
    /// so the accessor works uniformly for fallback digests too.
    pub fn merged(&self) -> Result<Instance, MergeError> {
        self.read(Instance::clone)
    }

    /// Reads a static variable of the *merged* state by name. Repeated
    /// reads between ingests share one fold via the cache.
    pub fn merged_global(&self, name: &str) -> Option<EValue> {
        self.read(|merged| merged.global(name)).ok()?
    }

    /// Applies `f` to the merged state, folding into the cache unless
    /// it is already fresh.
    fn read<T>(&self, f: impl FnOnce(&Instance) -> T) -> Result<T, MergeError> {
        let replicas = self.settled();
        if let [only] = replicas.shards.as_slice() {
            // Fallback digests may hold non-mergeable plans; a single
            // replica needs no folding.
            return Ok(f(&only.inst));
        }
        let mut cache = self.merged_cache.borrow_mut();
        if cache.is_none() {
            let mut acc = Instance::new(&self.program);
            for rep in &replicas.shards {
                acc.merge_from(&rep.inst, &self.plan)?;
            }
            *cache = Some(acc);
        }
        Ok(f(cache.as_ref().expect("folded above")))
    }

    /// Current evaluation statistics; pending rows are evaluated first
    /// so fuel is exact.
    pub fn stats(&self) -> DigestStats {
        let replicas = self.settled();
        let per_shard_events: Vec<u64> = replicas.shards.iter().map(|r| r.events).collect();
        DigestStats {
            requested_shards: self.requested_shards,
            shards: per_shard_events.len(),
            sharded: per_shard_events.len() > 1,
            events: per_shard_events.iter().sum(),
            per_shard_events,
            skipped: self.skipped,
            fuel_spent: replicas.fuel_spent,
            aborted: replicas.aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::Schema;

    fn schema() -> Schema {
        Schema::build("rec")
            .field("size", FieldType::U64)
            .field("port", FieldType::U64)
            .finish()
            .unwrap()
    }

    const MERGEABLE: &str = "
        static int count = 0;
        static int bytes = 0;
        static int biggest = 0;
        static bool saw_admin = false;
        count = count + 1;
        bytes = bytes + size;
        biggest = max(biggest, size);
        if (port < 1024) { saw_admin = true; }
        return count;
    ";

    #[test]
    fn mergeable_digest_shards_and_folds_exactly() {
        let schema = schema();
        let mut seq = ShardedDigest::compile(MERGEABLE, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        assert!(!seq.is_sharded());
        assert!(sharded.is_sharded());
        assert_eq!(sharded.shard_count(), 4);
        // Every replica count must agree on the (deterministic) execution
        // tier, and the canonical mergeable digest fits the default budget.
        assert_eq!(seq.tier(), ecode::ExecTier::Compiled);
        assert_eq!(sharded.tier(), seq.tier());

        for i in 0..100u64 {
            let rec = [
                Value::U64(i * 37 % 91),
                Value::U64(if i % 5 == 0 { 80 } else { 9000 }),
            ];
            seq.ingest(i % 7, &rec);
            sharded.ingest(i % 7, &rec);
        }
        let a = seq.merged().unwrap();
        let b = sharded.merged().unwrap();
        assert_eq!(a.raw_globals(), b.raw_globals(), "fold must be bit-exact");
        assert_eq!(sharded.merged_global("count"), Some(EValue::Int(100)));
        assert_eq!(sharded.merged_global("saw_admin"), Some(EValue::Bool(true)));

        let stats = sharded.stats();
        assert_eq!(stats.events, 100);
        assert_eq!(stats.per_shard_events.iter().sum::<u64>(), 100);
        assert!(stats.sharded);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.aborted, 0);
        assert!(stats.fuel_spent > 0);
        assert_eq!(stats.fuel_spent, seq.stats().fuel_spent, "fuel is exact");
    }

    #[test]
    fn opaque_digest_falls_back_to_one_instance() {
        // `acc * 2` scales accumulated state — classified Opaque — so
        // the requested 8 shards must collapse to 1.
        let src = "
            static int acc = 0;
            acc = acc * 2 + size;
            return acc;
        ";
        let d = ShardedDigest::compile(src, &schema(), 8).unwrap();
        assert!(!d.is_sharded());
        assert_eq!(d.shard_count(), 1);
        assert!(!d.plan().fully_mergeable());
        let stats = d.stats();
        assert_eq!(stats.requested_shards, 8);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn merged_cache_invalidates_on_ingest() {
        let schema = schema();
        let mut d = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        d.ingest(1, &[Value::U64(5), Value::U64(80)]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(1)));
        // Second read between ingests is served by the cached fold.
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(5)));
        // A new record must drop the stale fold.
        d.ingest(2, &[Value::U64(7), Value::U64(9000)]);
        assert_eq!(d.merged_global("count"), Some(EValue::Int(2)));
        assert_eq!(d.merged_global("bytes"), Some(EValue::Int(12)));
    }

    #[test]
    fn same_key_always_meets_the_same_shard() {
        let d = ShardedDigest::compile(MERGEABLE, &schema(), 8).unwrap();
        for key in 0..64u64 {
            assert_eq!(d.shard_of(key), d.shard_of(key));
            assert!(d.shard_of(key) < 8);
        }
    }

    #[test]
    fn raw_ingest_matches_value_ingest_bitwise() {
        let schema = schema();
        let mut by_value = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        let mut by_raw = ShardedDigest::compile(MERGEABLE, &schema, 4).unwrap();
        for i in 0..300u64 {
            let size = i * 131 % 7919;
            let port = if i % 11 == 0 { 443 } else { 8080 };
            by_value.ingest(i, &[Value::U64(size), Value::U64(port)]);
            by_raw.ingest_raw(i, &[size as i64, port as i64]);
        }
        assert_eq!(
            by_value.merged().unwrap().raw_globals(),
            by_raw.merged().unwrap().raw_globals()
        );
        // A wrong-arity raw row is counted, not evaluated.
        by_raw.ingest_raw(0, &[1]);
        assert_eq!(by_raw.stats().skipped, 1);
    }

    /// Division by a record field bails the batch vectorizer (a zero
    /// lane would have to trap mid-batch), but the accumulator is still
    /// sum-mergeable — so this program runs sharded with every replica
    /// on the scalar VM. The fold must stay bit-exact with sequential,
    /// and a genuinely trapping record must surface in `aborted`
    /// identically at every shard count.
    #[test]
    fn non_vectorizable_digest_uses_scalar_fallback() {
        let src = "
            static int ratio_sum = 0;
            ratio_sum = ratio_sum + size / port;
            return ratio_sum;
        ";
        let schema = schema();
        let mut seq = ShardedDigest::compile(src, &schema, 1).unwrap();
        let mut sharded = ShardedDigest::compile(src, &schema, 4).unwrap();
        assert!(sharded.is_sharded(), "program must stay shardable");
        for i in 0..200u64 {
            let size = (i * 97 % 5000) as i64;
            let port = if i == 137 { 0 } else { (1 + i % 17) as i64 };
            seq.ingest_raw(i, &[size, port]);
            sharded.ingest_raw(i, &[size, port]);
        }
        assert_eq!(
            seq.merged().unwrap().raw_globals(),
            sharded.merged().unwrap().raw_globals()
        );
        let (s1, s2) = (seq.stats(), sharded.stats());
        assert_eq!(s1.aborted, 1, "the port-0 record must trap");
        assert_eq!(s2.aborted, 1);
        assert_eq!(s1.fuel_spent, s2.fuel_spent, "abort accounting is exact");
    }

    /// Records buffered below a full batch must still be visible to a
    /// read: every read evaluates the pending rows first.
    #[test]
    fn read_evaluates_pending_rows() {
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), 4).unwrap();
        for i in 0..17u64 {
            d.ingest_raw(i, &[10, 80]);
        }
        assert_eq!(d.merged_global("count"), Some(EValue::Int(17)));
        let stats = d.stats();
        assert_eq!(stats.events, 17);
        assert!(stats.fuel_spent > 0, "a read must surface pending fuel");
    }

    // ---------------------------------------------------------------
    // Batched ≡ scalar (differential)
    // ---------------------------------------------------------------

    /// Feeds `records` (`key, size, port, read`) to a `shards`-replica
    /// digest and to a scalar `run_raw` oracle, reading the merged
    /// statics after every record flagged `read`. Every read, and the
    /// final statics and fuel, must match the oracle bit for bit — so
    /// reads at arbitrary cuts of a partial buffer, and the fold cache
    /// they fill, can never change what the digest computes.
    fn assert_matches_scalar_oracle(records: &[(u64, i64, i64, bool)], shards: usize) {
        let inputs = [("size", Type::Int), ("port", Type::Int)];
        let limits = VerifyLimits::with_max_fuel(DIGEST_FUEL_BUDGET);
        let (program, _) = ecode::verify(MERGEABLE, &inputs, &limits)
            .unwrap()
            .into_parts();
        let mut oracle = Instance::new(&program);
        let mut oracle_fuel = 0;
        let mut d = ShardedDigest::compile(MERGEABLE, &schema(), shards).unwrap();
        for (i, &(key, size, port, read)) in records.iter().enumerate() {
            d.ingest_raw(key, &[size, port]);
            let run = oracle.run_raw(&[size, port], d.fuel_bound()).unwrap();
            oracle_fuel += run.fuel_used;
            if read {
                let ctx = format!("shards={shards} after record {i}");
                assert_eq!(d.merged_global("count"), oracle.global("count"), "{ctx}");
                assert_eq!(
                    d.merged().unwrap().raw_globals(),
                    oracle.raw_globals(),
                    "{ctx}"
                );
            }
        }
        let ctx = format!("shards={shards} at the end");
        assert_eq!(
            d.merged().unwrap().raw_globals(),
            oracle.raw_globals(),
            "{ctx}"
        );
        let stats = d.stats();
        assert_eq!(stats.events, records.len() as u64);
        assert_eq!(stats.fuel_spent, oracle_fuel, "fuel metering must be exact");
        assert_eq!(stats.aborted, 0);
    }

    /// Streams longer than one batch evaluate full buffers mid-ingest;
    /// reads land on both sides of those boundaries.
    #[test]
    fn full_batches_match_the_scalar_oracle() {
        let records: Vec<(u64, i64, i64, bool)> = (0..3 * BATCH_ROWS as u64 + 17)
            .map(|i| {
                let read = i % 5000 == 4095 || i == 2 * BATCH_ROWS as u64;
                (i % 97, (i * 131 % 7919) as i64, (i % 2000) as i64, read)
            })
            .collect();
        for shards in [1, 3, 8] {
            assert_matches_scalar_oracle(&records, shards);
        }
    }

    #[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Batched ingest ≡ scalar evaluation on `raw_globals` and
            /// fuel, for random record streams, shard counts, and read
            /// points (each record is followed by a read with
            /// probability 1/8).
            #[test]
            fn prop_batched_with_random_reads_equals_scalar(
                records in proptest::collection::vec(
                    (0u64..64, 0i64..100_000, 0i64..10_000, (0u8..8).prop_map(|r| r == 0)),
                    0..400),
                shards in 1usize..9,
            ) {
                assert_matches_scalar_oracle(&records, shards);
            }
        }
    }
}
