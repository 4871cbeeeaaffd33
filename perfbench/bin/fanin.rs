//! `gpa_fanin`: 32 daemon streams deliver interaction batches into one
//! GPA over a lossy, duplicating, reordering link.
//!
//! Generation first measures how a daemon ships: it replays the
//! `node_replay` capture of the same seed once and records the number of
//! interaction records in each data batch and the mean time between
//! batches. Every stream ships on that cadence (so hand-offs from the 32
//! streams are a 32nd of it apart) with batch sizes drawn from those
//! measured sizes. Generation then builds, per stream, interaction
//! records PBIO-encoded through a real `Hub` and framed into batches
//! exactly as the daemon frames them; the hand-off order; the arrival
//! times of each hand-off's copies, drawn by a `simnet::FaultInjector`
//! with the monitoring-link fault mix `tests/scenarios.rs` uses (loss,
//! duplication, jitter and reordering); and the digest statics a
//! sequential fold over every record gives. None of it is timed.
//!
//! Each round builds a GPA with the default configuration and the
//! hotpath `DIGEST_PROGRAM` installed at 2 shards, plus one `ReliableTx`
//! per stream. Every hand-off seals the next batch through the stream's
//! `ReliableTx`, and every copy that arrives is delivered to
//! `Gpa::ingest_wire` at its arrival time; the GPA's ACK/NACK replies
//! drive the sender's `ack`/`nack`, and every retransmit is delivered.
//! The retransmit timer (`due`) runs every resend timeout of virtual
//! time. A fixed query mix runs every `QUERY_EVERY` hand-offs. The
//! stream fills the GPA's retention and runs past it, so eviction is on
//! the measured path.

use std::collections::{BTreeMap, VecDeque};

use pubsub::control::ControlMsg;
use pubsub::reliable::ResendConfig;
use pubsub::Hub;
use simcore::{NodeId, SimDuration, SimRng, SimTime};
use simnet::{EndPoint, FaultInjector, FaultPlan, FlowKey, Ip, LinkFaults, LinkSpec, Port};
use simos::Bytes;
use sysprof::{
    flow_shard_key, Gpa, GpaConfig, InteractionRecord, ReliableTx, DAEMON_SRC_PORT, DATA_PORT,
    INTERACTION_TOPIC,
};
use sysprof_bench::hotpath::{DIGEST_GLOBALS, DIGEST_PROGRAM};

use crate::trace::{median, span, Reps, Segment, SharedTracer};
use crate::{query, replay, Checks, Ctx, Outcome};

const STREAMS: usize = 32;
const DIGEST_SHARDS: usize = 2;
const CLASS_PORTS: [Port; 3] = [Port(80), Port(443), Port(11211)];
/// Records past the GPA's retention cap, per round. Each one costs an
/// O(retention) eviction (about 11 ms at the default 1M cap on a 2-vCPU
/// host), so a few keep eviction on the measured path without letting
/// memory bandwidth dominate the round.
const OVERFLOW_RECORDS: u64 = 8;
/// The query mix runs after every this many hand-offs.
const QUERY_EVERY: usize = 16;
/// Extra stack builds timed for `setup_s` in every round, besides the
/// round's own. Spread over the run, so the median reflects all of it.
const SETUPS_PER_ROUND: usize = 5;
/// The GPA's node, for the fault injector.
const GPA_NODE: NodeId = NodeId(STREAMS as u32);
/// The fault mix of the straggler's monitoring link in
/// `tests/scenarios.rs` (`allreduce_diagnosis_survives_monitoring_chaos`).
const MONITORING_LINK: LinkFaults = LinkFaults {
    loss: 0.05,
    duplicate: 0.02,
    reorder: 0.02,
    jitter: SimDuration::from_micros(200),
    reorder_delay: SimDuration::from_millis(1),
};

struct StreamInput {
    src: EndPoint,
    /// Framed hub wire messages, one batch each.
    batches: Vec<Vec<u8>>,
}

struct FaninInput {
    gpa_ep: EndPoint,
    config: GpaConfig,
    streams: Vec<StreamInput>,
    /// Hand-offs in order: (stream, batch index within the stream).
    order: Vec<(usize, usize)>,
    /// Virtual time between hand-offs.
    gap: SimDuration,
    /// Arrival times of each hand-off's copies (none: lost).
    arrivals: Vec<Vec<SimTime>>,
    records: u64,
    /// `DIGEST_GLOBALS` after a sequential fold over every record.
    expected_digest: Vec<Option<ecode::Value>>,
    probes: Vec<(NodeId, Port)>,
}

fn record(rng: &mut SimRng, stream: usize, i: u64) -> InteractionRecord {
    let start_us = i * 50 + rng.uniform_u64(0, 40);
    let kernel_in_us = rng.uniform_u64(5, 200);
    let user_us = rng.uniform_u64(10, 2_000);
    let kernel_out_us = rng.uniform_u64(5, 150);
    let blocked_us = if rng.chance(0.1) {
        rng.uniform_u64(100, 5_000)
    } else {
        0
    };
    let class_port = CLASS_PORTS[rng.index(CLASS_PORTS.len())];
    InteractionRecord {
        node: NodeId(stream as u32),
        flow: FlowKey::new(
            EndPoint::new(
                Ip(0x0a01_0000 + rng.uniform_u64(0, 4_000) as u32),
                Port(30_000 + rng.uniform_u64(0, 20_000) as u16),
            ),
            EndPoint::new(Ip(0x0a00_0000 + stream as u32), class_port),
        ),
        class_port,
        pid: 100 + rng.uniform_u64(0, 8) as u32,
        start_us,
        end_us: start_us + kernel_in_us + user_us + kernel_out_us + blocked_us,
        req_packets: rng.uniform_u64(1, 4) as u32,
        req_bytes: rng.uniform_u64(64, 4_000),
        resp_packets: rng.uniform_u64(1, 9) as u32,
        resp_bytes: rng.uniform_u64(40, 12_000),
        kernel_in_us,
        user_us,
        kernel_out_us,
        blocked_us,
        blocked_io_us: blocked_us / 2,
    }
}

/// Virtual time of hand-off `i`.
fn handoff_time(gap: SimDuration, i: usize) -> SimTime {
    SimTime::ZERO + gap * (i as u64 + 1)
}

fn generate(ctx: &Ctx) -> FaninInput {
    let (seed, small) = (ctx.seed, ctx.small);
    let (batch_sizes, interval) = replay::daemon_batches(ctx);
    println!(
        "gpa_fanin: daemon ships {} batches of {:.1} records on average, every {interval:?}",
        batch_sizes.len(),
        batch_sizes.iter().sum::<u64>() as f64 / batch_sizes.len() as f64
    );
    let gap = interval / STREAMS as u64;
    let mut rng = SimRng::seed(seed ^ 0xfa41_2024);
    let config = if small {
        GpaConfig {
            max_records: 16_384,
            ..GpaConfig::default()
        }
    } else {
        GpaConfig::default()
    };
    let records = config.max_records as u64 + if small { 4_000 } else { OVERFLOW_RECORDS };
    let gpa_ep = EndPoint::new(Ip(0x0a00_00ff), DATA_PORT);
    let schema = InteractionRecord::schema();
    let mut seq_digest = pubsub::digest::ShardedDigest::compile(DIGEST_PROGRAM, &schema, 1)
        .expect("static digest verifies");
    let mut hubs: Vec<Hub> = (0..STREAMS)
        .map(|_| {
            let mut hub = Hub::new();
            let topic = hub.topic(INTERACTION_TOPIC);
            hub.subscribe_with_schema(topic, gpa_ep, None, &schema)
                .expect("unfiltered subscription");
            hub
        })
        .collect();
    let mut streams: Vec<StreamInput> = (0..STREAMS)
        .map(|s| StreamInput {
            src: EndPoint::new(Ip(0x0a00_0000 + s as u32), DAEMON_SRC_PORT),
            batches: Vec::new(),
        })
        .collect();
    let mut per_stream = [0u64; STREAMS];
    let mut order = Vec::new();
    let mut row = Vec::new();
    let mut made = 0u64;
    while made < records {
        let s = rng.index(STREAMS);
        let n = batch_sizes[rng.index(batch_sizes.len())].min(records - made);
        let hub = &mut hubs[s];
        let topic = hub.topic(INTERACTION_TOPIC);
        let mut batch = Vec::new();
        for _ in 0..n {
            let rec = record(&mut rng, s, per_stream[s]);
            per_stream[s] += 1;
            rec.to_raw_row(&mut row);
            seq_digest.ingest_raw(flow_shard_key(&rec), &row);
            for (_, wire) in hub
                .publish_raw(topic, &schema, &row)
                .expect("record fits schema")
            {
                pbio::write_u64(&mut batch, wire.len() as u64);
                batch.extend_from_slice(&wire);
            }
        }
        order.push((s, streams[s].batches.len()));
        streams[s].batches.push(batch);
        made += n;
    }
    let mut link = FaultInjector::new(
        FaultPlan::new().with_default_link(MONITORING_LINK),
        rng.fork(0x11c),
    );
    let propagation = LinkSpec::gigabit_lan().propagation;
    let arrivals = order
        .iter()
        .enumerate()
        .map(|(i, &(s, _))| {
            let at = handoff_time(gap, i);
            link.deliveries(at, NodeId(s as u32), GPA_NODE, at + propagation)
        })
        .collect();
    let expected_digest = DIGEST_GLOBALS
        .iter()
        .map(|g| seq_digest.merged_global(g))
        .collect();
    let probes = (0..STREAMS)
        .flat_map(|s| CLASS_PORTS.iter().map(move |p| (NodeId(s as u32), *p)))
        .collect();
    FaninInput {
        gpa_ep,
        config,
        streams,
        order,
        gap,
        arrivals,
        records,
        expected_digest,
        probes,
    }
}

/// The receiving GPA and the senders' reliable-stream state.
struct Stack {
    gpa: Gpa,
    txs: Vec<ReliableTx>,
}

fn build_stack(input: &FaninInput) -> Stack {
    let mut gpa = Gpa::new(input.config);
    gpa.install_digest(DIGEST_PROGRAM, DIGEST_SHARDS)
        .expect("static digest verifies");
    let txs = (0..STREAMS)
        .map(|_| ReliableTx::new(ResendConfig::default()))
        .collect();
    Stack { gpa, txs }
}

/// Round counters.
#[derive(Default)]
struct Round {
    ns: u64,
    deliveries: u64,
    ingested: u64,
    retransmits: u64,
}

/// Delivers `wire` from stream `s` and everything it provokes: the
/// GPA's ACKs and NACKs go to the stream's `ReliableTx`, and every
/// retransmit a NACK yields is delivered in turn.
fn deliver(
    stack: &mut Stack,
    input: &FaninInput,
    s: usize,
    wire: Bytes,
    now: SimTime,
    round: &mut Round,
    tracer: &SharedTracer,
) {
    let src = input.streams[s].src;
    let mut queue = VecDeque::from([wire]);
    while let Some(w) = queue.pop_front() {
        let (n, replies) = span(tracer, "gpa.ingest_wire", || {
            stack.gpa.ingest_wire(now, input.gpa_ep, src, &w)
        });
        round.deliveries += 1;
        round.ingested += n as u64;
        for reply in replies {
            let tx = &mut stack.txs[s];
            span(tracer, "reliable.reply", || match reply {
                ControlMsg::DataAck { subscriber, upto } => {
                    tx.ack(subscriber, upto);
                }
                ControlMsg::DataNack {
                    subscriber,
                    from_seq,
                    to_seq,
                } => {
                    for (_, rw) in tx.nack(now, subscriber, from_seq, to_seq) {
                        round.retransmits += 1;
                        queue.push_back(rw);
                    }
                }
                other => panic!("unexpected GPA reply {other:?}"),
            });
        }
    }
}

/// Runs the retransmit timer of every stream at `now`.
fn due_scan(
    stack: &mut Stack,
    input: &FaninInput,
    now: SimTime,
    round: &mut Round,
    tracer: &SharedTracer,
) {
    for s in 0..STREAMS {
        let due = span(tracer, "reliable.reply", || stack.txs[s].due(now));
        for (_, wire) in due {
            round.retransmits += 1;
            deliver(stack, input, s, wire, now, round, tracer);
        }
    }
}

/// One round: every hand-off, then the drain. Hand-off `i` seals its
/// batch and delivers every copy that arrives before hand-off `i + 1`;
/// its flush latency covers that. The round is cut into segments at
/// every retransmit-timer scan, one resend timeout of virtual time
/// apart (the drain is the last segment); a query-mix latency is taken
/// every `QUERY_EVERY` hand-offs.
fn fanin_round(stack: &mut Stack, input: &FaninInput, ctx: &Ctx) -> (Round, Vec<Segment>) {
    let tracer = &ctx.tracer;
    let clock = ctx.clock;
    let rto = ResendConfig::default().rto;
    let mut round = Round::default();
    let mut segments = Vec::new();
    let mut seg = Segment::default();
    // Copies in flight by (arrival, hand-off order), so copies that
    // arrive together are delivered in the order they were sent.
    let mut in_flight: BTreeMap<(SimTime, u64), (usize, Bytes)> = BTreeMap::new();
    let mut sent = 0u64;
    let mut next_due = SimTime::ZERO + rto;
    let start = clock.now_ns();
    let mut seg_start = start;
    let mut now = SimTime::ZERO;
    for (i, (&(s, b), arrivals)) in input.order.iter().zip(&input.arrivals).enumerate() {
        now = handoff_time(input.gap, i);
        if now >= next_due {
            due_scan(stack, input, now, &mut round, tracer);
            next_due = now + rto;
            let t = clock.now_ns();
            seg.ns = t - seg_start;
            segments.push(std::mem::take(&mut seg));
            seg_start = t;
        }
        let t0 = clock.now_ns();
        let payload = &input.streams[s].batches[b];
        let wire = span(tracer, "reliable.seal", || {
            stack.txs[s].seal(now, input.gpa_ep, payload)
        });
        for &at in arrivals {
            in_flight.insert((at, sent), (s, wire.clone()));
            sent += 1;
        }
        let next = handoff_time(input.gap, i + 1);
        while let Some(entry) = in_flight.first_entry() {
            let at = entry.key().0;
            if at >= next {
                break;
            }
            let (ds, wire) = entry.remove();
            deliver(stack, input, ds, wire, at, &mut round, tracer);
        }
        seg.flush.push((clock.now_ns() - t0) as f64 / 1e3);
        if (i + 1) % QUERY_EVERY == 0 {
            let probe = input.probes[(i / QUERY_EVERY) % input.probes.len()];
            let t0 = clock.now_ns();
            query::mix(&stack.gpa, probe, tracer);
            seg.queries.push((clock.now_ns() - t0) as f64 / 1e3);
        }
    }
    // Drain: late copies arrive, then retransmit timers recover any
    // tail loss until every stream has converged.
    for ((at, _), (s, wire)) in std::mem::take(&mut in_flight) {
        now = now.max(at);
        deliver(stack, input, s, wire, now, &mut round, tracer);
    }
    for _ in 0..64 {
        if stack.gpa.streams_converged() && stack.txs.iter().all(|t| t.buffered_bytes() == 0) {
            break;
        }
        now += rto * 2;
        due_scan(stack, input, now, &mut round, tracer);
    }
    // The final answer: the digest's merged statics (merge barrier).
    for name in DIGEST_GLOBALS {
        span(tracer, "digest.read", || stack.gpa.digest_global(name));
    }
    let end = clock.now_ns();
    seg.ns = end - seg_start;
    segments.push(seg);
    round.ns = end - start;
    (round, segments)
}

fn check_round(checks: &mut Checks, stack: &Stack, input: &FaninInput, round: &Round) {
    let g = stack.gpa.gpa_stats();
    let evictions: u64 = stack.txs.iter().map(|t| t.evictions()).sum();
    let decode_failures = stack.gpa.decode_failures();
    let lossless = g.gaps_abandoned == 0 && evictions == 0 && decode_failures == 0;
    checks.check(
        if lossless {
            round.ingested == input.records
        } else {
            round.ingested < input.records
        },
        || {
            format!(
                "ingested {} of {} sealed records ({} gaps abandoned, {evictions} resend evictions, {decode_failures} decode failures)",
                round.ingested, input.records, g.gaps_abandoned
            )
        },
    );
    let retained = stack.gpa.interactions();
    let mut keys: Vec<(u32, u64)> = retained.iter().map(|r| (r.node.0, r.start_us)).collect();
    keys.sort_unstable();
    keys.dedup();
    checks.check(
        keys.len() == retained.len()
            && retained.len() as u64 == round.ingested.min(input.config.max_records as u64),
        || {
            format!(
                "GPA retains {} records ({} distinct) after ingesting {}",
                retained.len(),
                keys.len(),
                round.ingested
            )
        },
    );
    let requests = stack.gpa.digest_global(DIGEST_GLOBALS[0]);
    checks.check(
        requests == Some(ecode::Value::Int(round.ingested as i64)),
        || {
            format!(
                "digest counted {requests:?} requests, GPA ingested {}",
                round.ingested
            )
        },
    );
    if lossless {
        for (name, want) in DIGEST_GLOBALS.iter().zip(&input.expected_digest) {
            let got = stack.gpa.digest_global(name);
            checks.check(got == *want, || {
                format!("digest static {name}: merged {got:?}, sequential fold {want:?}")
            });
        }
    }
}

fn add_counters(outcome: &mut Outcome, stack: &Stack, round: &Round) {
    let mut add = |name: &'static str, v: u64| {
        *outcome.layers.get_mut(name).expect("declared layer metric") += v as f64;
    };
    let g = stack.gpa.gpa_stats();
    add("daemon.retransmits", round.retransmits);
    add(
        "daemon.resend_evictions",
        stack.txs.iter().map(|t| t.evictions()).sum(),
    );
    add("gpa.duplicate_batches", g.duplicate_batches);
    add("gpa.out_of_order", g.out_of_order);
    add("gpa.nacks_sent", g.nacks_sent);
    add("gpa.gaps_abandoned", g.gaps_abandoned);
    add("gpa.records_ingested", round.ingested);
    add(
        "gpa.records_evicted",
        round.ingested - stack.gpa.interaction_count(),
    );
    add("gpa.decode_failures", stack.gpa.decode_failures());
    add(
        "digest.events",
        stack.gpa.digest_stats().map_or(0, |d| d.events),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let input = generate(ctx);
    ctx.inputs_ready();
    println!(
        "gpa_fanin: {} records in {} hand-offs over {STREAMS} streams, retention {}",
        input.records,
        input.order.len(),
        input.config.max_records
    );
    let mut setup = Vec::new();

    let mut outcome = Outcome::default();
    let mut reps = Reps::default();
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let mut per_round = None;
    let started = ctx.clock.now_ns();
    let mut i = 0;
    while ctx.more_rounds(started, i, 3) {
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = ctx.clock.now_ns();
            let stack = build_stack(&input);
            setup.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
            drop(stack);
        }
        let traced = ctx.round_traced(i);
        let t0 = ctx.clock.now_ns();
        let mut stack = build_stack(&input);
        setup.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
        let r = if traced {
            ctx.tracer.borrow_mut().begin_round();
            let (r, _) = fanin_round(&mut stack, &input, ctx);
            ctx.tracer.borrow_mut().end_round();
            add_counters(&mut outcome, &stack, &r);
            traced_rounds.push(r.ns as f64);
            r
        } else {
            let (r, segments) = fanin_round(&mut stack, &input, ctx);
            plain_rounds.push(r.ns as f64);
            reps.add_round(segments);
            per_round = Some((r.deliveries, r.ingested));
            r
        };
        check_round(&mut outcome.checks, &stack, &input, &r);
        i += 1;
    }

    let (round_ns, flush, queries) = reps.best();
    let (deliveries, ingested) = per_round.unwrap_or_default();
    outcome
        .e2e
        .insert("events_per_s", deliveries as f64 / (round_ns / 1e9));
    outcome
        .e2e
        .insert("records_per_s", ingested as f64 / (round_ns / 1e9));
    outcome.e2e.insert("verdict_s", round_ns / 1e9);
    outcome.e2e.insert("setup_s", median(&setup));
    if !ctx.traced {
        outcome.percentile(ctx, "flush_us_p50", &flush, 50.0);
        outcome.percentile(ctx, "flush_us_p99", &flush, 99.0);
        outcome.percentile(ctx, "query_us_p50", &queries, 50.0);
        outcome.percentile(ctx, "query_us_p90", &queries, 90.0);
    } else {
        let t = ctx.tracer.borrow();
        outcome.span_rows(
            &t,
            "reliable.seal",
            "reliable.seal.calls",
            "reliable.seal.ns",
        );
        outcome.span_rows(
            &t,
            "reliable.reply",
            "reliable.reply.calls",
            "reliable.reply.ns",
        );
        outcome.span_rows(
            &t,
            "gpa.ingest_wire",
            "gpa.ingest_wire.calls",
            "gpa.ingest_wire.ns",
        );
        outcome.span_rows(&t, "digest.read", "digest.read.calls", "digest.read.ns");
        outcome.span_rows(&t, "gpa.query", "gpa.query.calls", "gpa.query.ns");
        outcome.trace_rows(&t, &traced_rounds, &plain_rounds);
    }
    outcome
}
