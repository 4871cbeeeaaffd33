//! The GPA's wire path against its direct path: records delivered as
//! PBIO-framed, sequenced batches through `Gpa::ingest_wire` (with
//! duplicates and reordering) must leave exactly the state that feeding
//! the same records, in delivery order, through `Gpa::ingest_record`
//! leaves. A mixed stream of load reports, foreign schemas and damaged
//! frames must be counted exactly as pinned below.

use pbio::{FieldType, Schema, Value};
use pubsub::reliable::encode_batch;
use pubsub::Hub;
use simcore::{NodeId, SimRng, SimTime};
use simnet::{EndPoint, FlowKey, Ip, Port};
use sysprof::{Gpa, GpaConfig, InteractionRecord, LoadRecord, INTERACTION_TOPIC};

const DIGEST: &str = "
    static int n = 0;
    static int bytes = 0;
    static int worst_us = 0;
    n = n + 1;
    bytes = bytes + req_bytes + resp_bytes;
    worst_us = max(worst_us, end_us - start_us);
    return n;
";
const DIGEST_STATICS: [&str; 3] = ["n", "bytes", "worst_us"];

fn gpa_ep() -> EndPoint {
    EndPoint::new(Ip(99), Port(9999))
}

fn record(rng: &mut SimRng, node: u32) -> InteractionRecord {
    let start_us = rng.uniform_u64(0, 1_000_000);
    let class = [80u16, 443, 2049][rng.index(3)];
    InteractionRecord {
        node: NodeId(node),
        flow: FlowKey::new(
            EndPoint::new(
                Ip(0x0a01_0000 + rng.uniform_u64(0, 64) as u32),
                Port(40_000),
            ),
            EndPoint::new(Ip(0x0a00_0000 + node), Port(class)),
        ),
        class_port: Port(class),
        pid: rng.uniform_u64(1, 9) as u32,
        start_us,
        end_us: start_us + rng.uniform_u64(1, 50_000),
        req_packets: rng.uniform_u64(1, 4) as u32,
        req_bytes: rng.uniform_u64(64, 1 << 40),
        resp_packets: rng.uniform_u64(1, 9) as u32,
        resp_bytes: rng.uniform_u64(40, 12_000),
        kernel_in_us: rng.uniform_u64(0, 300),
        user_us: rng.uniform_u64(0, 3_000),
        kernel_out_us: rng.uniform_u64(0, 200),
        blocked_us: rng.uniform_u64(0, 5_000),
        blocked_io_us: rng.uniform_u64(0, 100),
    }
}

/// Appends one hub wire message to a daemon batch (length-prefixed).
fn frame(batch: &mut Vec<u8>, wire: &[u8]) {
    pbio::write_u64(batch, wire.len() as u64);
    batch.extend_from_slice(wire);
}

/// One daemon's stream: its sealed batches and the records in each.
struct Stream {
    src: EndPoint,
    batches: Vec<(Vec<u8>, Vec<InteractionRecord>)>,
}

fn stream(rng: &mut SimRng, node: u32, records: usize) -> Stream {
    let schema = InteractionRecord::schema();
    let mut hub = Hub::new();
    let topic = hub.topic(INTERACTION_TOPIC);
    hub.subscribe(topic, gpa_ep(), None).unwrap();
    let mut row = Vec::new();
    let mut batches = Vec::new();
    let mut left = records;
    while left > 0 {
        let n = (rng.uniform_u64(1, 24) as usize).min(left);
        left -= n;
        let (mut payload, mut recs) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let rec = record(rng, node);
            rec.to_raw_row(&mut row);
            for (_, wire) in hub.publish_raw(topic, &schema, &row).unwrap() {
                frame(&mut payload, &wire);
            }
            recs.push(rec);
        }
        let seq = batches.len() as u64 + 1;
        batches.push((encode_batch(seq, &payload), recs));
    }
    Stream {
        src: EndPoint::new(Ip(node), Port(9997)),
        batches,
    }
}

fn summaries(gpa: &Gpa) -> String {
    format!("{:?}", gpa.all_class_summaries())
}

fn statics(gpa: &Gpa) -> Vec<Option<ecode::Value>> {
    DIGEST_STATICS
        .iter()
        .map(|s| gpa.digest_global(s))
        .collect()
}

fn check_wire_matches_direct(max_records: usize) {
    let mut rng = SimRng::seed(0x51de);
    let streams: Vec<Stream> = (1..=3).map(|n| stream(&mut rng, n, 400)).collect();
    let config = GpaConfig {
        max_records,
        log_deliveries: true,
        ..GpaConfig::default()
    };
    let mut wire = Gpa::new(config);
    wire.install_digest(DIGEST, 2).unwrap();
    // Every batch arrives; a tenth twice. Arrivals are shuffled within a
    // sliding window, so streams reorder and interleave.
    let mut arrivals: Vec<(usize, usize)> = Vec::new();
    for (s, st) in streams.iter().enumerate() {
        for b in 0..st.batches.len() {
            arrivals.push((s, b));
            if rng.chance(0.1) {
                arrivals.push((s, b));
            }
        }
    }
    rng.shuffle(&mut arrivals);
    let mut ingested = 0;
    for &(s, b) in &arrivals {
        // All arrivals share one instant: NACK pacing then never lets a
        // gap run through its NACK budget, so nothing is abandoned.
        let st = &streams[s];
        ingested += wire
            .ingest_wire(SimTime::from_millis(5), gpa_ep(), st.src, &st.batches[b].0)
            .0;
    }
    assert!(wire.streams_converged());
    let stats = wire.gpa_stats();
    assert!(
        stats.duplicate_batches > 0 && stats.out_of_order > 0,
        "{stats:?}"
    );
    assert_eq!(stats.gaps_abandoned, 0);

    // The direct path, fed the same records in the order the wire path
    // delivered their batches.
    let mut direct = Gpa::new(config);
    direct.install_digest(DIGEST, 2).unwrap();
    for &(src, seq) in wire.delivery_log() {
        let st = streams.iter().find(|st| st.src == src).unwrap();
        direct.ingest_records(&st.batches[seq as usize - 1].1);
    }
    assert_eq!(ingested, 1200, "every record decoded exactly once");
    assert_eq!(wire.interactions(), direct.interactions());
    assert_eq!(wire.interaction_count(), 1200.min(max_records) as u64);
    assert_eq!(summaries(&wire), summaries(&direct));
    assert_eq!(statics(&wire), statics(&direct));
    assert_eq!(statics(&wire)[0], Some(ecode::Value::Int(1200)));
    assert_eq!(wire.decode_failures(), direct.decode_failures());
    assert_eq!(wire.decode_failures(), 0);
    assert_eq!(
        wire.gpa_stats().records_evicted,
        direct.gpa_stats().records_evicted
    );
    assert_eq!(
        wire.gpa_stats().records_evicted,
        1200 - wire.interaction_count()
    );
}

#[test]
fn wire_path_matches_direct_ingest() {
    check_wire_matches_direct(GpaConfig::default().max_records);
}

#[test]
fn wire_path_matches_direct_ingest_past_retention() {
    check_wire_matches_direct(333);
}

/// One source's batch mixing every kind of frame the GPA can see.
/// Returns the sealed batch.
fn mixed_batch(seq: u64) -> Vec<u8> {
    let mut rng = SimRng::seed(seq);
    let mut hub = Hub::new();
    let topic = hub.topic(INTERACTION_TOPIC);
    hub.subscribe(topic, gpa_ep(), None).unwrap();
    let interaction = InteractionRecord::schema();
    let odd = Schema::build("odd")
        .field("a", FieldType::U64)
        .field("b", FieldType::U64)
        .field("c", FieldType::U64)
        .finish()
        .unwrap();
    let text = Schema::build("text")
        .field("a", FieldType::U64)
        .field("s", FieldType::Str)
        .finish()
        .unwrap();
    let mut payload = Vec::new();
    let publish = |hub: &mut Hub, schema: &Schema, values: &[Value], payload: &mut Vec<u8>| {
        for (_, wire) in hub.publish(topic, schema, values).unwrap() {
            frame(payload, &wire);
        }
    };
    for i in 0..5u64 {
        publish(
            &mut hub,
            &interaction,
            &record(&mut rng, 1).to_values(),
            &mut payload,
        );
        let load = LoadRecord {
            node: NodeId(1),
            wall_us: 1_000 * i,
            cpu_utilization: 0.1 * i as f64,
            mean_kernel_us: 3.5,
            interactions: i,
            monitor_us: 2,
        };
        publish(
            &mut hub,
            &LoadRecord::schema(),
            &load.to_values(),
            &mut payload,
        );
        // A numeric schema of neither shape: decodes, matches nothing.
        publish(
            &mut hub,
            &odd,
            &[Value::U64(i), Value::U64(2), Value::U64(3)],
            &mut payload,
        );
        // A string schema: decodes to values, matches nothing.
        publish(
            &mut hub,
            &text,
            &[Value::U64(i), Value::Str("x".into())],
            &mut payload,
        );
    }
    // A record of a schema id the GPA never learned.
    let mut unknown = Vec::new();
    pbio::write_u64(&mut unknown, topic.0 as u64);
    pbio::write_u64(&mut unknown, 77);
    unknown.extend_from_slice(&[0, 1, 2, 3]);
    frame(&mut payload, &unknown);
    // An interaction record cut short inside its frame.
    let mut row = Vec::new();
    record(&mut rng, 1).to_raw_row(&mut row);
    let cut = hub.publish_raw(topic, &interaction, &row).unwrap()[0]
        .1
        .clone();
    frame(&mut payload, &cut[..cut.len() - 3]);
    // One more whole interaction after the damage.
    publish(
        &mut hub,
        &interaction,
        &record(&mut rng, 1).to_values(),
        &mut payload,
    );
    // A trailing frame whose length runs past the batch: dropped whole.
    pbio::write_u64(&mut payload, 1_000);
    payload.extend_from_slice(&[1, 2, 3]);
    encode_batch(seq, &payload)
}

#[test]
fn mixed_stream_counts_are_pinned() {
    let mut gpa = Gpa::new(GpaConfig::default());
    let src = EndPoint::new(Ip(1), Port(9997));
    let mut decoded = 0;
    // Batch 2 arrives first (buffered), then 1 (delivers both), then a
    // duplicate of 2.
    for seq in [2u64, 1, 2] {
        decoded += gpa
            .ingest_wire(SimTime::from_millis(1), gpa_ep(), src, &mixed_batch(seq))
            .0;
    }
    // Pinned: each batch decodes 5 interactions, 5 loads, 5 odd-shape
    // and 5 string records plus the whole trailing interaction (21),
    // and fails the 5 + 5 unmatched records, the unknown schema id and
    // the truncated record (12).
    assert_eq!(decoded, 42);
    assert_eq!(gpa.interaction_count(), 12);
    assert_eq!(gpa.load_history().len(), 10);
    assert_eq!(gpa.decode_failures(), 24);
    assert_eq!(gpa.node_load(NodeId(1)).map(|v| v.reports), Some(10));
    let stats = gpa.gpa_stats();
    assert_eq!(
        (
            stats.batches_received,
            stats.duplicate_batches,
            stats.out_of_order
        ),
        (3, 1, 1)
    );
}
