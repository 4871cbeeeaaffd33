//! Kernel-level publish/subscribe channels for monitoring data.
//!
//! "After local, in-kernel analysis, monitoring data may then be
//! aggregated and sent to remote analyzers (or to any remote data
//! consumer) through kernel-level publish-subscribe channels." (§1)
//!
//! This crate is the channel bookkeeping and wire format; the actual
//! transport is `simos::World::kernel_send` / `KernelSink` (real simulated
//! packets consuming real bandwidth and CPU). Pieces:
//!
//! * [`Hub`] — the publisher side: topics, per-topic subscriber lists,
//!   per-subscription **dynamic data filters** written in E-Code (the
//!   paper's "dynamic data filters"), and PBIO encoding of records,
//! * [`ChannelDecoder`] — the subscriber side: learns schemas from the
//!   stream (self-describing) and decodes records,
//! * [`control`] — SUBSCRIBE/UNSUBSCRIBE control-message codecs.
//!
//! # Example
//!
//! ```
//! use pbio::{FieldType, Schema, Value};
//! use pubsub::{ChannelDecoder, Hub};
//! use simnet::{EndPoint, Ip, Port};
//!
//! let schema = Schema::build("metric")
//!     .field("latency_us", FieldType::U64)
//!     .finish()?;
//! let mut hub = Hub::new();
//! let topic = hub.topic("interactions");
//! let sub = EndPoint::new(Ip(2), Port(9999));
//! // Only deliver latencies over 1 ms:
//! hub.subscribe(topic, sub, Some("return latency_us > 1000;"))?;
//!
//! let sends = hub.publish(topic, &schema, &[Value::U64(5_000)])?;
//! assert_eq!(sends.len(), 1);
//! let mut dec = ChannelDecoder::new();
//! let (t, values) = dec.decode(&sends[0].1)?.expect("a record");
//! assert_eq!(t, topic);
//! assert_eq!(values, vec![Value::U64(5_000)]);
//!
//! let dropped = hub.publish(topic, &schema, &[Value::U64(10)])?;
//! assert!(dropped.is_empty(), "filter suppressed the record");
//! # Ok::<(), pubsub::PubSubError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod digest;
pub mod reliable;

use std::collections::HashMap;
use std::fmt;

use ecode::{Instance, Type, Value as EValue, VerifyLimits};
use pbio::{
    read_u64, write_u64, BatchEncoder, FieldType, PbioError, RecordReader, RecordWriter, Schema,
    SchemaId, SchemaRegistry, Value,
};
use simnet::EndPoint;

/// A channel topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub u32);

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PubSubError {
    /// The referenced topic does not exist.
    UnknownTopic(TopicId),
    /// A subscription filter failed static verification. Carries the
    /// full line-numbered diagnostics for the NACK path.
    BadFilter(ecode::VerifyError),
    /// Record encoding/decoding failed.
    Codec(PbioError),
    /// A record's fields did not match its schema.
    SchemaMismatch,
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::UnknownTopic(t) => write!(f, "unknown topic {}", t.0),
            PubSubError::BadFilter(e) => write!(f, "filter error: {e}"),
            PubSubError::Codec(e) => write!(f, "codec error: {e}"),
            PubSubError::SchemaMismatch => f.write_str("record does not match schema"),
        }
    }
}

impl std::error::Error for PubSubError {}

impl From<PbioError> for PubSubError {
    fn from(e: PbioError) -> Self {
        PubSubError::Codec(e)
    }
}

/// Worst-case fuel a subscription filter may cost per record. Filters
/// are statically verified against this budget at subscribe time, so a
/// filter that could exceed it is rejected before it ever runs.
pub const FILTER_FUEL_BUDGET: u64 = 10_000;

/// A compiled per-subscription filter. Filters see the record's numeric
/// and boolean fields as E-Code inputs by field name; string/bytes fields
/// are not visible to filters.
struct Filter {
    /// Persistent VM instance, reused (with fresh statics via
    /// `reset_globals`) across evaluations so the publish hot path does
    /// not clone the program per record.
    instance: Instance,
    /// Indices of the record fields that are filter inputs, in input order.
    field_indices: Vec<usize>,
    /// Reusable input scratch, rebuilt from the record each evaluation.
    inputs: Vec<EValue>,
    /// Statically proven worst-case fuel per evaluation.
    fuel_bound: u64,
}

impl Filter {
    fn compile(src: &str, schema: &Schema) -> Result<Filter, PubSubError> {
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
            &VerifyLimits::with_max_fuel(FILTER_FUEL_BUDGET),
        )
        .map_err(PubSubError::BadFilter)?;
        let (program, report) = verified.into_parts();
        Ok(Filter {
            instance: Instance::new(&program),
            field_indices,
            inputs: Vec::new(),
            fuel_bound: report.fuel_bound,
        })
    }

    /// Returns whether the record passes, plus the fuel spent deciding.
    fn passes(&mut self, values: &[Value]) -> (bool, u64) {
        self.inputs.clear();
        for &i in &self.field_indices {
            self.inputs.push(match &values[i] {
                Value::U64(v) => EValue::Int(*v as i64),
                Value::I64(v) => EValue::Int(*v),
                Value::F64(v) => EValue::Double(*v),
                Value::Bool(v) => EValue::Bool(*v),
                Value::Str(_) | Value::Bytes(_) => unreachable!("filtered out at compile"),
            });
        }
        self.eval()
    }

    /// [`passes`](Filter::passes) over a raw numeric row (digest bit
    /// convention) — the `publish_raw` hot path, which never
    /// materializes [`Value`]s. Decisions are identical to `passes` on
    /// the equivalent values: both marshal the same bits into the same
    /// E-Code inputs.
    fn passes_raw(&mut self, schema: &Schema, row: &[i64]) -> (bool, u64) {
        self.inputs.clear();
        for &i in &self.field_indices {
            let v = row[i];
            self.inputs.push(match schema.fields()[i].ty {
                FieldType::U64 | FieldType::I64 => EValue::Int(v),
                FieldType::F64 => EValue::Double(f64::from_bits(v as u64)),
                FieldType::Bool => EValue::Bool(v != 0),
                FieldType::Str | FieldType::Bytes => {
                    unreachable!("raw publish requires a numeric schema")
                }
            });
        }
        self.eval()
    }

    /// Runs the program over the marshalled `inputs` scratch.
    fn eval(&mut self) -> (bool, u64) {
        // Filters keep the original fresh-statics-per-evaluation
        // semantics: reset, then run the persistent instance.
        self.instance.reset_globals();
        // The verifier proved `fuel_bound` suffices, so granting exactly
        // that much can never abort with OutOfFuel.
        match self.instance.run(&self.inputs, self.fuel_bound) {
            Ok(out) => (out.ret != 0, out.fuel_used),
            // Defense in depth: a runtime trap (e.g. an input-dependent
            // division by zero, which verification only warns about) fails
            // open — the subscriber gets the record rather than silently
            // losing data.
            Err(_) => (true, self.fuel_bound),
        }
    }
}

struct Subscription {
    endpoint: EndPoint,
    filter: Option<Filter>,
    /// Schema ids already announced to this subscriber.
    sent_schemas: std::collections::HashSet<u32>,
    delivered: u64,
    filtered: u64,
}

/// The publisher half of a node's monitoring channels.
pub struct Hub {
    topics: HashMap<String, TopicId>,
    subs: HashMap<TopicId, Vec<Subscription>>,
    schemas: SchemaRegistry,
    next_topic: u32,
    /// Total E-Code fuel burned in filters (host converts to CPU cost).
    filter_fuel: u64,
    /// Late-compiled filters that failed verification (the subscription
    /// then delivers unfiltered rather than silently dropping records).
    filter_failures: u64,
    /// Filters awaiting their topic's first schema: (topic, sub index,
    /// source).
    pending_filters: Vec<(TopicId, usize, String)>,
    /// Per-schema batch encoders for the raw publish path, keyed by
    /// registered schema id (schema validation is loop-invariant; spend
    /// it once).
    raw_encoders: HashMap<u32, BatchEncoder>,
    /// Reusable record-bytes scratch for `publish_raw`.
    raw_record: Vec<u8>,
}

impl Default for Hub {
    fn default() -> Self {
        Self::new()
    }
}

impl Hub {
    /// An empty hub.
    pub fn new() -> Self {
        Hub {
            topics: HashMap::new(),
            subs: HashMap::new(),
            schemas: SchemaRegistry::new(),
            next_topic: 0,
            filter_fuel: 0,
            filter_failures: 0,
            pending_filters: Vec::new(),
            raw_encoders: HashMap::new(),
            raw_record: Vec::new(),
        }
    }

    /// Gets or creates a topic by name.
    pub fn topic(&mut self, name: &str) -> TopicId {
        if let Some(&t) = self.topics.get(name) {
            return t;
        }
        let t = TopicId(self.next_topic);
        self.next_topic += 1;
        self.topics.insert(name.to_owned(), t);
        self.subs.insert(t, Vec::new());
        t
    }

    /// Looks up a topic by name without creating it.
    pub fn topic_id(&self, name: &str) -> Option<TopicId> {
        self.topics.get(name).copied()
    }

    /// Adds a subscription. `filter` is an optional E-Code source whose
    /// inputs are the numeric/boolean fields of published records; a
    /// nonzero return delivers the record.
    ///
    /// The filter is compiled lazily against the first published schema —
    /// pass `schema_hint` via [`subscribe_with_schema`](Hub::subscribe_with_schema)
    /// to compile eagerly and catch errors at subscribe time.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownTopic`] if the topic does not exist.
    pub fn subscribe(
        &mut self,
        topic: TopicId,
        endpoint: EndPoint,
        filter: Option<&str>,
    ) -> Result<(), PubSubError> {
        let subs = self
            .subs
            .get_mut(&topic)
            .ok_or(PubSubError::UnknownTopic(topic))?;
        subs.push(Subscription {
            endpoint,
            filter: None,
            sent_schemas: Default::default(),
            delivered: 0,
            filtered: 0,
        });
        if let Some(src) = filter {
            // Remember the source; compile on first publish (schema known).
            let idx = subs.len() - 1;
            self.pending_filters.push((topic, idx, src.to_owned()));
        }
        Ok(())
    }

    /// Adds a subscription with an eagerly compiled and **statically
    /// verified** filter. Returns the filter's proven worst-case fuel per
    /// record (`None` when no filter was given), which hosts use to
    /// pre-size cost accounting.
    ///
    /// # Errors
    ///
    /// [`PubSubError::UnknownTopic`], or [`PubSubError::BadFilter`]
    /// carrying the verifier's line-numbered diagnostics — nothing is
    /// registered in that case.
    pub fn subscribe_with_schema(
        &mut self,
        topic: TopicId,
        endpoint: EndPoint,
        filter: Option<&str>,
        schema: &Schema,
    ) -> Result<Option<u64>, PubSubError> {
        let compiled = match filter {
            Some(src) => Some(Filter::compile(src, schema)?),
            None => None,
        };
        let subs = self
            .subs
            .get_mut(&topic)
            .ok_or(PubSubError::UnknownTopic(topic))?;
        let fuel_bound = compiled.as_ref().map(|f| f.fuel_bound);
        subs.push(Subscription {
            endpoint,
            filter: compiled,
            sent_schemas: Default::default(),
            delivered: 0,
            filtered: 0,
        });
        Ok(fuel_bound)
    }

    /// Removes all subscriptions of `endpoint` on `topic`. Returns how
    /// many were removed.
    pub fn unsubscribe(&mut self, topic: TopicId, endpoint: EndPoint) -> usize {
        let Some(subs) = self.subs.get_mut(&topic) else {
            return 0;
        };
        let before = subs.len();
        subs.retain(|s| s.endpoint != endpoint);
        before - subs.len()
    }

    /// Number of subscriptions on a topic.
    pub fn subscriber_count(&self, topic: TopicId) -> usize {
        self.subs.get(&topic).map(|s| s.len()).unwrap_or(0)
    }

    /// Encodes and fans a record out to every passing subscriber. Returns
    /// `(endpoint, wire bytes)` pairs the caller hands to the kernel
    /// transport. The first delivery of a schema to a subscriber inlines
    /// the schema description (self-describing stream).
    ///
    /// # Errors
    ///
    /// Codec errors if the values do not match the schema.
    pub fn publish(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        values: &[Value],
    ) -> Result<Vec<(EndPoint, Vec<u8>)>, PubSubError> {
        if !self.subs.contains_key(&topic) {
            return Err(PubSubError::UnknownTopic(topic));
        }
        self.compile_pending_filters(topic, schema);

        if values.len() != schema.len() {
            return Err(PubSubError::SchemaMismatch);
        }
        let schema_id = self.schemas.register(schema);

        // Encode the record once.
        let mut rw = RecordWriter::new(schema);
        for v in values {
            rw.push_value(v)?;
        }
        let record = rw.finish()?;

        // Subscriptions for one topic are a Vec: delivery walks them in
        // registration order, never in hash order.
        let topic_subs = self.subs.get_mut(&topic).expect("checked");
        let mut out = Vec::new();
        for sub in topic_subs.iter_mut() {
            if let Some(filter) = sub.filter.as_mut() {
                let (pass, fuel) = filter.passes(values);
                self.filter_fuel += fuel;
                if !pass {
                    sub.filtered += 1;
                    continue;
                }
            }
            let include_schema = sub.sent_schemas.insert(schema_id.0);
            let mut wire = Vec::with_capacity(record.len() + 8);
            write_u64(&mut wire, topic.0 as u64);
            write_u64(&mut wire, schema_id.0 as u64);
            wire.push(include_schema as u8);
            if include_schema {
                schema.encode(&mut wire);
            }
            wire.extend_from_slice(&record);
            sub.delivered += 1;
            out.push((sub.endpoint, wire));
        }
        Ok(out)
    }

    /// [`publish`](Hub::publish) over a raw numeric row (one `i64` per
    /// schema field, digest raw-row bit convention: integers hold the
    /// value, doubles hold `f64::to_bits`, bools are nonzero-for-true) —
    /// the daemon's per-record hot path.
    ///
    /// Wire bytes, filter decisions, fuel accounting, and delivery
    /// counters are **identical** to `publish` with the equivalent
    /// [`Value`]s; the difference is purely cost: the schema is compiled
    /// to a [`BatchEncoder`] once (cached per schema id), the record
    /// encodes through the vectorized bounds-check-hoisted loop into a
    /// reusable scratch, and filters marshal straight from the row.
    ///
    /// # Errors
    ///
    /// Same as `publish`, plus [`PubSubError::Codec`] if the schema has
    /// string/bytes fields (those records have no raw-row form — keep
    /// publishing them through `publish`).
    pub fn publish_raw(
        &mut self,
        topic: TopicId,
        schema: &Schema,
        row: &[i64],
    ) -> Result<Vec<(EndPoint, Vec<u8>)>, PubSubError> {
        if !self.subs.contains_key(&topic) {
            return Err(PubSubError::UnknownTopic(topic));
        }
        self.compile_pending_filters(topic, schema);

        if row.len() != schema.len() {
            return Err(PubSubError::SchemaMismatch);
        }
        let schema_id = self.schemas.register(schema);
        let enc = match self.raw_encoders.entry(schema_id.0) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(BatchEncoder::new(schema)?),
        };
        self.raw_record.clear();
        enc.encode_row_into(row, &mut self.raw_record)?;

        let record = &self.raw_record;
        let topic_subs = self.subs.get_mut(&topic).expect("checked");
        let mut out = Vec::new();
        for sub in topic_subs.iter_mut() {
            if let Some(filter) = sub.filter.as_mut() {
                let (pass, fuel) = filter.passes_raw(schema, row);
                self.filter_fuel += fuel;
                if !pass {
                    sub.filtered += 1;
                    continue;
                }
            }
            let include_schema = sub.sent_schemas.insert(schema_id.0);
            let mut wire = Vec::with_capacity(record.len() + 8);
            write_u64(&mut wire, topic.0 as u64);
            write_u64(&mut wire, schema_id.0 as u64);
            wire.push(include_schema as u8);
            if include_schema {
                schema.encode(&mut wire);
            }
            wire.extend_from_slice(record);
            sub.delivered += 1;
            out.push((sub.endpoint, wire));
        }
        Ok(out)
    }

    /// Late-compiles any pending filters for `topic` now that a schema
    /// is known. A filter that fails verification must not abort the
    /// publish (that would drop the record for *every* subscriber on the
    /// topic): the failure is counted and that one subscription delivers
    /// unfiltered, consistent with the fail-open policy in `passes`.
    fn compile_pending_filters(&mut self, topic: TopicId, schema: &Schema) {
        let pending = std::mem::take(&mut self.pending_filters);
        for (t, idx, src) in pending {
            if t == topic {
                match Filter::compile(&src, schema) {
                    Ok(filter) => {
                        if let Some(sub) = self.subs.get_mut(&t).and_then(|v| v.get_mut(idx)) {
                            sub.filter = Some(filter);
                        }
                    }
                    Err(_) => self.filter_failures += 1,
                }
            } else {
                self.pending_filters.push((t, idx, src));
            }
        }
    }

    /// Total E-Code fuel burned by subscription filters so far (the host
    /// converts this to CPU time and charges it as monitoring overhead).
    pub fn filter_fuel(&self) -> u64 {
        self.filter_fuel
    }

    /// How many lazily-compiled filters failed verification (those
    /// subscriptions deliver unfiltered instead of silently dropping).
    pub fn filter_failures(&self) -> u64 {
        self.filter_failures
    }

    /// The largest statically proven per-record fuel bound across all
    /// installed filters — the worst case one published record can cost
    /// in filter CPU per subscriber. Hosts use it to pre-size
    /// per-instruction cost accounting.
    pub fn max_filter_fuel_bound(&self) -> u64 {
        self.subs
            .values()
            .flatten()
            .filter_map(|s| s.filter.as_ref().map(|f| f.fuel_bound))
            .max()
            .unwrap_or(0)
    }

    /// How many installed filters run on each execution tier, as
    /// `(compiled, interpreted)`. Tier selection happens automatically at
    /// compile time ([`ecode::Instance::new`]); this only observes the
    /// outcome — both tiers are observably identical.
    pub fn filter_tiers(&self) -> (usize, usize) {
        // Counting is order-free, so iterating the subscription map in
        // hash order cannot be observed in the result.
        let tier_count = |want: ecode::ExecTier| {
            self.subs
                .values()
                .flatten()
                .filter(|s| s.filter.as_ref().is_some_and(|f| f.instance.tier() == want))
                .count()
        };
        (
            tier_count(ecode::ExecTier::Compiled),
            tier_count(ecode::ExecTier::Interpreted),
        )
    }

    /// (delivered, filtered) counts for a subscriber on a topic.
    pub fn delivery_stats(&self, topic: TopicId, endpoint: EndPoint) -> Option<(u64, u64)> {
        self.subs
            .get(&topic)?
            .iter()
            .find(|s| s.endpoint == endpoint)
            .map(|s| (s.delivered, s.filtered))
    }
}

/// The subscriber half: decodes the self-describing stream.
#[derive(Default)]
pub struct ChannelDecoder {
    /// Installed schemas by wire id.
    schemas: HashMap<u32, Installed>,
    /// The record shapes the subscriber knows (see
    /// [`with_shapes`](ChannelDecoder::with_shapes)).
    shapes: Vec<BatchEncoder>,
}

/// One installed schema. A numeric schema also carries its raw-row
/// decoder and the index of the known shape it matches, both settled
/// once, when the schema is installed.
struct Installed {
    schema: Schema,
    raw: Option<(BatchEncoder, Option<usize>)>,
}

/// One message decoded by [`ChannelDecoder::decode_raw`].
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// A schema announcement carrying no record.
    Announcement,
    /// A record of a numeric schema, decoded into the caller's raw row.
    Row {
        /// The record's topic.
        topic: TopicId,
        /// Index of the [`with_shapes`](ChannelDecoder::with_shapes)
        /// schema whose field types the record's schema has, if any.
        shape: Option<usize>,
    },
    /// A record of a schema with `Str`/`Bytes` fields, which has no
    /// raw-row form.
    Values {
        /// The record's topic.
        topic: TopicId,
        /// The record's fields, in schema order.
        values: Vec<Value>,
    },
}

impl ChannelDecoder {
    /// An empty decoder (learns schemas from the stream).
    pub fn new() -> Self {
        ChannelDecoder::default()
    }

    /// A decoder that classifies every numeric schema it installs
    /// against `shapes`: [`decode_raw`](Self::decode_raw) then reports
    /// the index of the shape whose field types (names aside) match.
    ///
    /// # Errors
    ///
    /// [`PubSubError::Codec`] if a shape has `Str`/`Bytes` fields.
    pub fn with_shapes(shapes: &[Schema]) -> Result<Self, PubSubError> {
        Ok(ChannelDecoder {
            schemas: HashMap::new(),
            shapes: shapes
                .iter()
                .map(BatchEncoder::new)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Reads a message's header, installing the schema it announces.
    /// Returns the topic, the schema id and the record bytes (empty for
    /// an announcement).
    fn header<'w>(&mut self, wire: &'w [u8]) -> Result<(TopicId, u32, &'w [u8]), PubSubError> {
        let mut buf = wire;
        let topic = TopicId(read_u64(&mut buf)? as u32);
        let id = read_u64(&mut buf)? as u32;
        let Some((&has_schema, rest)) = buf.split_first() else {
            return Err(PubSubError::Codec(PbioError::UnexpectedEof));
        };
        buf = rest;
        if has_schema != 0 {
            let schema = Schema::decode(&mut buf)?;
            let raw = BatchEncoder::new(&schema).ok().map(|codec| {
                let shape = self.shapes.iter().position(|s| *s == codec);
                (codec, shape)
            });
            self.schemas.insert(id, Installed { schema, raw });
        }
        Ok((topic, id, buf))
    }

    fn installed(&self, id: u32) -> Result<&Installed, PubSubError> {
        self.schemas
            .get(&id)
            .ok_or(PubSubError::Codec(PbioError::UnknownSchema(id)))
    }

    /// Decodes one published message into `(topic, values)`. Returns
    /// `Ok(None)` for a schema-only announcement carrying no record.
    ///
    /// # Errors
    ///
    /// Codec errors on malformed input or unknown schema ids.
    pub fn decode(&mut self, wire: &[u8]) -> Result<Option<(TopicId, Vec<Value>)>, PubSubError> {
        let (topic, id, body) = self.header(wire)?;
        if body.is_empty() {
            return Ok(None);
        }
        let schema = &self.installed(id)?.schema;
        Ok(Some((topic, RecordReader::new(schema, body).read_all()?)))
    }

    /// [`decode`](Self::decode) without the per-field [`Value`]s: a
    /// record of a numeric schema decodes straight into `row` (cleared
    /// first, capacity reused) in the raw-row bit convention of
    /// [`pbio::encode_batch_into`], through the decoder cached when its
    /// schema was installed. Accepts and rejects exactly the messages
    /// `decode` does; only `Str`/`Bytes` schemas still build `Value`s.
    ///
    /// # Errors
    ///
    /// Same as [`decode`](Self::decode).
    pub fn decode_raw(&mut self, wire: &[u8], row: &mut Vec<i64>) -> Result<Decoded, PubSubError> {
        let (topic, id, body) = self.header(wire)?;
        if body.is_empty() {
            return Ok(Decoded::Announcement);
        }
        let installed = self.installed(id)?;
        match &installed.raw {
            Some((codec, shape)) => {
                codec.decode_row_into(body, row)?;
                Ok(Decoded::Row {
                    topic,
                    shape: *shape,
                })
            }
            None => Ok(Decoded::Values {
                topic,
                values: RecordReader::new(&installed.schema, body).read_all()?,
            }),
        }
    }

    /// The schema most recently associated with an id, if known.
    pub fn schema(&self, id: SchemaId) -> Option<&Schema> {
        self.schemas.get(&id.0).map(|i| &i.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Ip, Port};

    fn schema() -> Schema {
        Schema::build("metric")
            .field("latency_us", FieldType::U64)
            .field("node", FieldType::Str)
            .field("load", FieldType::F64)
            .finish()
            .unwrap()
    }

    fn ep(host: u32) -> EndPoint {
        EndPoint::new(Ip(host), Port(9999))
    }

    fn rec(latency: u64, load: f64) -> Vec<Value> {
        vec![
            Value::U64(latency),
            Value::Str("proxy".into()),
            Value::F64(load),
        ]
    }

    #[test]
    fn publish_without_subscribers_sends_nothing() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        let out = hub.publish(t, &schema(), &rec(1, 0.5)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn fanout_to_multiple_subscribers() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), None).unwrap();
        hub.subscribe(t, ep(2), None).unwrap();
        let out = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(hub.subscriber_count(t), 2);
    }

    #[test]
    fn schema_travels_once_per_subscriber() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), None).unwrap();
        let first = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        let second = hub.publish(t, &schema(), &rec(6, 0.2)).unwrap();
        assert!(
            first[0].1.len() > second[0].1.len() + 20,
            "first message carries the schema: {} vs {}",
            first[0].1.len(),
            second[0].1.len()
        );
        // Both decode fine in order.
        let mut dec = ChannelDecoder::new();
        assert!(dec.decode(&first[0].1).unwrap().is_some());
        let (topic, vals) = dec.decode(&second[0].1).unwrap().unwrap();
        assert_eq!(topic, t);
        assert_eq!(vals[0], Value::U64(6));
    }

    #[test]
    fn decode_raw_classifies_schemas_by_field_types() {
        let numeric = Schema::build("n")
            .field("a", FieldType::U64)
            .field("b", FieldType::F64)
            .finish()
            .unwrap();
        // Same field types under other names: the same shape.
        let renamed = Schema::build("r")
            .field("x", FieldType::U64)
            .field("y", FieldType::F64)
            .finish()
            .unwrap();
        let other = Schema::build("o")
            .field("a", FieldType::F64)
            .field("b", FieldType::U64)
            .finish()
            .unwrap();
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), None).unwrap();
        let mut dec = ChannelDecoder::with_shapes(&[other.clone(), numeric]).unwrap();
        let mut row = Vec::new();
        let pair = [Value::U64(5), Value::F64(0.5)];
        let sends = hub.publish(t, &renamed, &pair).unwrap();
        assert_eq!(
            dec.decode_raw(&sends[0].1, &mut row),
            Ok(Decoded::Row {
                topic: t,
                shape: Some(1)
            })
        );
        assert_eq!(row, vec![5, 0.5f64.to_bits() as i64]);
        let sends = hub
            .publish(
                t,
                &Schema::build("z")
                    .field("a", FieldType::U64)
                    .finish()
                    .unwrap(),
                &[Value::U64(3)],
            )
            .unwrap();
        assert_eq!(
            dec.decode_raw(&sends[0].1, &mut row),
            Ok(Decoded::Row {
                topic: t,
                shape: None
            })
        );
        assert_eq!(row, vec![3]);
        let sends = hub.publish(t, &schema(), &rec(9, 0.25)).unwrap();
        assert_eq!(
            dec.decode_raw(&sends[0].1, &mut row),
            Ok(Decoded::Values {
                topic: t,
                values: rec(9, 0.25)
            })
        );
        assert!(ChannelDecoder::with_shapes(&[schema()]).is_err());
    }

    #[test]
    fn decoder_without_schema_errors() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), None).unwrap();
        let first = hub.publish(t, &schema(), &rec(5, 0.1)).unwrap();
        let second = hub.publish(t, &schema(), &rec(6, 0.2)).unwrap();
        let _ = first;
        let mut dec = ChannelDecoder::new();
        // Skipping the schema-bearing message leaves the id unknown.
        assert!(matches!(
            dec.decode(&second[0].1),
            Err(PubSubError::Codec(PbioError::UnknownSchema(_)))
        ));
    }

    #[test]
    fn filter_suppresses_and_counts() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe_with_schema(t, ep(1), Some("return latency_us > 100;"), &schema())
            .unwrap();
        assert!(hub.publish(t, &schema(), &rec(50, 0.0)).unwrap().is_empty());
        assert_eq!(hub.publish(t, &schema(), &rec(500, 0.0)).unwrap().len(), 1);
        assert_eq!(hub.delivery_stats(t, ep(1)), Some((1, 1)));
        assert!(hub.filter_fuel() > 0);
        // A trivial comparison filter is well within the compiled tier's
        // limits: it must have landed there.
        assert_eq!(hub.filter_tiers(), (1, 0));
    }

    #[test]
    fn filter_sees_float_fields() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe_with_schema(t, ep(1), Some("return load > 0.9;"), &schema())
            .unwrap();
        assert!(hub.publish(t, &schema(), &rec(1, 0.5)).unwrap().is_empty());
        assert_eq!(hub.publish(t, &schema(), &rec(1, 0.95)).unwrap().len(), 1);
    }

    #[test]
    fn late_compiled_filter_works() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), Some("return latency_us >= 10;"))
            .unwrap();
        assert!(hub.publish(t, &schema(), &rec(5, 0.0)).unwrap().is_empty());
        assert_eq!(hub.publish(t, &schema(), &rec(10, 0.0)).unwrap().len(), 1);
    }

    #[test]
    fn bad_filter_is_reported_eagerly() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        let err = hub
            .subscribe_with_schema(t, ep(1), Some("return nonsense_field;"), &schema())
            .unwrap_err();
        assert!(matches!(err, PubSubError::BadFilter(_)));
    }

    #[test]
    fn unsubscribe_removes() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        hub.subscribe(t, ep(1), None).unwrap();
        hub.subscribe(t, ep(2), None).unwrap();
        assert_eq!(hub.unsubscribe(t, ep(1)), 1);
        assert_eq!(hub.subscriber_count(t), 1);
        assert_eq!(hub.unsubscribe(t, ep(1)), 0);
    }

    #[test]
    fn unknown_topic_errors() {
        let mut hub = Hub::new();
        let bogus = TopicId(99);
        assert!(matches!(
            hub.subscribe(bogus, ep(1), None),
            Err(PubSubError::UnknownTopic(_))
        ));
        assert!(matches!(
            hub.publish(bogus, &schema(), &rec(1, 0.0)),
            Err(PubSubError::UnknownTopic(_))
        ));
    }

    #[test]
    fn value_count_mismatch_errors() {
        let mut hub = Hub::new();
        let t = hub.topic("x");
        assert!(matches!(
            hub.publish(t, &schema(), &[Value::U64(1)]),
            Err(PubSubError::SchemaMismatch)
        ));
    }

    #[test]
    fn topics_are_stable_by_name() {
        let mut hub = Hub::new();
        let a = hub.topic("alpha");
        let b = hub.topic("beta");
        assert_ne!(a, b);
        assert_eq!(hub.topic("alpha"), a);
        assert_eq!(hub.topic_id("beta"), Some(b));
        assert_eq!(hub.topic_id("gamma"), None);
    }

    fn numeric_schema() -> Schema {
        Schema::build("numeric")
            .field("latency_us", FieldType::U64)
            .field("delta", FieldType::I64)
            .field("load", FieldType::F64)
            .field("hot", FieldType::Bool)
            .finish()
            .unwrap()
    }

    /// `publish_raw` is a pure producer-side optimization: over the same
    /// record stream — filters, schema inlining, counters, fuel, and
    /// every wire byte included — it must be indistinguishable from
    /// `publish` with the equivalent values.
    #[test]
    fn publish_raw_is_byte_identical_to_publish() {
        let schema = numeric_schema();
        let mut by_values = Hub::new();
        let mut by_rows = Hub::new();
        for hub in [&mut by_values, &mut by_rows] {
            let t = hub.topic("m");
            hub.subscribe_with_schema(t, ep(1), Some("return latency_us > 100 && hot;"), &schema)
                .unwrap();
            hub.subscribe(t, ep(2), None).unwrap();
        }
        let t = by_values.topic("m");
        for i in 0..20u64 {
            let latency = i * 30;
            let delta = 5 - i as i64;
            let load = 0.25 + i as f64;
            let hot = i % 3 == 0;
            let values = vec![
                Value::U64(latency),
                Value::I64(delta),
                Value::F64(load),
                Value::Bool(hot),
            ];
            let row = [latency as i64, delta, load.to_bits() as i64, hot as i64];
            let a = by_values.publish(t, &schema, &values).unwrap();
            let b = by_rows.publish_raw(t, &schema, &row).unwrap();
            assert_eq!(a, b, "wire divergence at record {i}");
        }
        for e in [ep(1), ep(2)] {
            assert_eq!(by_values.delivery_stats(t, e), by_rows.delivery_stats(t, e));
        }
        assert_eq!(by_values.filter_fuel(), by_rows.filter_fuel());
        assert!(by_rows.filter_fuel() > 0);
    }

    #[test]
    fn publish_raw_rejects_string_schemas() {
        let mut hub = Hub::new();
        let t = hub.topic("m");
        hub.subscribe(t, ep(1), None).unwrap();
        assert!(matches!(
            hub.publish_raw(t, &schema(), &[1, 2, 3]),
            Err(PubSubError::Codec(PbioError::BadSchema(_)))
        ));
        // Row/schema arity mismatches fail the same way `publish` does.
        assert!(matches!(
            hub.publish_raw(t, &numeric_schema(), &[1]),
            Err(PubSubError::SchemaMismatch)
        ));
    }
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
mod wire_fuzz {
    use super::*;
    use proptest::prelude::*;
    use simnet::{Ip, Port};

    /// Runs `wire` through `decode` on one decoder and `decode_raw` on
    /// another, and checks they agree: same error, or the same record
    /// (raw bits for numeric schemas).
    fn agree(
        by_value: &mut ChannelDecoder,
        by_row: &mut ChannelDecoder,
        wire: &[u8],
    ) -> Result<(), String> {
        let mut row = vec![7; 2];
        let want = by_value.decode(wire);
        let got = by_row.decode_raw(wire, &mut row);
        let as_raw = |values: &[Value]| -> Vec<i64> {
            values
                .iter()
                .map(|v| match *v {
                    Value::U64(x) => x as i64,
                    Value::I64(x) => x,
                    Value::F64(x) => x.to_bits() as i64,
                    Value::Bool(b) => b as i64,
                    _ => unreachable!("numeric schema"),
                })
                .collect()
        };
        let same = match (&want, &got) {
            (Err(a), Err(b)) => a == b,
            (Ok(None), Ok(Decoded::Announcement)) => true,
            (Ok(Some((ta, values))), Ok(Decoded::Row { topic, .. })) => {
                ta == topic && as_raw(values) == row
            }
            (Ok(Some((ta, va))), Ok(Decoded::Values { topic, values })) => {
                ta == topic && va == values
            }
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "decode {want:?} vs decode_raw {got:?} (row {row:?})"
            ))
        }
    }

    proptest! {
        /// The channel decoder is total on arbitrary input, and its raw
        /// form agrees with it.
        #[test]
        fn prop_decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut dec = ChannelDecoder::new();
            let _ = dec.decode(&bytes);
            agree(&mut ChannelDecoder::new(), &mut ChannelDecoder::new(), &bytes)?;
        }

        /// `decode_raw` agrees with `decode` on a published stream of a
        /// numeric and a string schema, with messages cut short.
        #[test]
        fn prop_decode_raw_agrees_with_decode(
            nums in proptest::collection::vec(any::<u64>(), 1..8),
            cut in proptest::collection::vec(0usize..64, 1..8),
        ) {
            let numeric = Schema::build("n")
                .field("a", FieldType::U64)
                .field("b", FieldType::I64)
                .field("c", FieldType::F64)
                .field("d", FieldType::Bool)
                .finish()
                .unwrap();
            let text = Schema::build("s")
                .field("a", FieldType::U64)
                .field("s", FieldType::Str)
                .finish()
                .unwrap();
            let mut hub = Hub::new();
            let t = hub.topic("x");
            hub.subscribe(t, EndPoint::new(Ip(1), Port(9)), None).unwrap();
            let mut by_value = ChannelDecoder::new();
            let mut by_row = ChannelDecoder::with_shapes(std::slice::from_ref(&numeric)).unwrap();
            for (i, &n) in nums.iter().enumerate() {
                let (schema, values) = if n % 3 == 0 {
                    (&text, vec![Value::U64(n), Value::Str(format!("r{n}"))])
                } else {
                    let values = vec![
                        Value::U64(n),
                        Value::I64(n as i64),
                        Value::F64(f64::from_bits(n)),
                        Value::Bool(n % 2 == 0),
                    ];
                    (&numeric, values)
                };
                let sends = hub.publish(t, schema, &values).unwrap();
                let mut wire = sends[0].1.clone();
                // Every other message is cut at a random point (past
                // the header, so the schema still installs sometimes).
                if i % 2 == 1 {
                    wire.truncate(cut[i % cut.len()].min(wire.len()));
                }
                agree(&mut by_value, &mut by_row, &wire)?;
            }
        }

        /// Publish → decode round-trips arbitrary numeric records.
        #[test]
        fn prop_publish_decode_roundtrip(a in any::<u64>(), b in any::<i64>(), c in -1e300f64..1e300) {
            let schema = Schema::build("fuzzrec")
                .field("a", FieldType::U64)
                .field("b", FieldType::I64)
                .field("c", FieldType::F64)
                .finish()
                .unwrap();
            let mut hub = Hub::new();
            let t = hub.topic("x");
            hub.subscribe(t, EndPoint::new(Ip(1), Port(9)), None).unwrap();
            let values = vec![Value::U64(a), Value::I64(b), Value::F64(c)];
            let sends = hub.publish(t, &schema, &values).unwrap();
            prop_assert_eq!(sends.len(), 1);
            let mut dec = ChannelDecoder::new();
            let (topic, decoded) = dec.decode(&sends[0].1).unwrap().unwrap();
            prop_assert_eq!(topic, t);
            prop_assert_eq!(decoded, values);
        }
    }
}
