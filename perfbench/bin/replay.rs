//! `node_replay`: one monitored node's kernel event stream, replayed
//! through a fresh monitoring stack per round.
//!
//! Generation runs a monitored `simos` world — request/response traffic
//! from many concurrent client flows with multi-packet messages, file
//! reads on the server (an event class no analyzer subscribes to) and
//! the scheduling events around them — and captures the server node's
//! event stream with a `kprof::TraceAnalyzer`, together with the records
//! the live run's GPA ended with.
//!
//! Each round builds Kprof with the real LPA and the `CPA_EVAL_SET`
//! analyzers, a daemon whose GPA subscription carries the hotpath
//! filter, and a GPA; then emits every captured event. The daemon wakes
//! on each buffer-full notification and on each periodic tick of the
//! trace's wall clock (the live daemon's wake times); its sends go to `Gpa::ingest_wire` and the GPA's
//! replies go back through the node's `ControlSink`. The round checks
//! that the GPA's records equal the live run's.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use kprof::{
    Analyzer, AnalyzerId, AnalyzerOutcome, Event, EventMask, FileId, Interest, Kprof, Pid,
    Predicate, TraceAnalyzer,
};
use pubsub::control::ControlMsg;
use pubsub::Hub;
use simcore::{NodeId, SimDuration, SimTime};
use simnet::{ClockSpec, EndPoint, Ip, LinkSpec, Port};
use simos::{
    Bytes, DaemonHook, DiskSpec, KernelOutput, KernelSink, Message, NodeConfig, NodeStats, ProcCtx,
    Program, SocketId, WorldBuilder,
};
use sysprof::{
    ControlSink, CpaAnalyzer, Daemon, DaemonConfig, DaemonStats, Gpa, GpaConfig, InteractionRecord,
    Lpa, LpaConfig, MonitorConfig, SysProf, DAEMON_SRC_PORT, DATA_PORT, INTERACTION_TOPIC,
    LOAD_TOPIC,
};
use sysprof_bench::hotpath::CPA_EVAL_SET;

use crate::trace::{median, round_ns, span, Reps, Segment, SharedTracer};
use crate::{query, Checks, Ctx, Outcome};

/// The hotpath pipeline's subscription filter (`SUB_FILTER` in
/// `crates/bench/src/hotpath.rs`): ships interactions whose response
/// exceeds 150 bytes.
const SUB_FILTER: &str = "return resp_bytes > 150;";

/// Event masks of the `CPA_EVAL_SET` analyzers, in set order. The first
/// also carries a pid predicate (the server process), as in the hotpath
/// pipeline.
const CPA_MASKS: [EventMask; 3] = [
    EventMask::NETWORK,
    EventMask::NETWORK,
    EventMask::SCHEDULING,
];

/// A `CPA_EVAL_SET` program as a Kprof CPA: the set is written against
/// the bench's `CPA_EVENT_INPUTS`, which names the event timestamp
/// `wall`; `CpaAnalyzer` marshals it as `wall_us`.
fn cpa_source(src: &str) -> String {
    src.replace("wall", "wall_us")
}

/// Client flows per client node, and client nodes.
const FLOWS_PER_CLIENT: usize = 16;
const CLIENT_NODES: usize = 4;
/// Service ports: clients on even nodes use the first, odd the second.
const SERVICE_PORTS: [Port; 2] = [Port(80), Port(8080)];
/// Query mixes run against each round's final GPA.
const QUERIES_PER_ROUND: usize = 128;
/// Extra stack builds timed for `setup_s` in every round, besides the
/// round's own. Spread over the run, so the median reflects all of it.
const SETUPS_PER_ROUND: usize = 1;

/// A captured event stream and the live run's outcome.
struct CapturedTrace {
    events: Vec<Event>,
    /// Wall times of the live daemon's periodic wakes.
    ticks: Vec<SimTime>,
    live_records: Vec<InteractionRecord>,
    node: NodeId,
    node_ip: Ip,
    server_pid: Pid,
    gpa_ep: EndPoint,
}

// ---------------------------------------------------------------------
// Generation: the monitored world the stream is captured from
// ---------------------------------------------------------------------

/// Serves requests with a seeded service time and response size; one
/// request in eight first reads a file.
struct TraceServer {
    pending: BTreeMap<u64, (SocketId, Message)>,
    next_token: u64,
}

impl TraceServer {
    fn reply(ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        // Three in ten responses are small enough for the subscription
        // filter to drop; the rest span one to eight packets.
        let bytes = if ctx.rng().chance(0.3) {
            ctx.rng().uniform_u64(40, 150)
        } else {
            ctx.rng().uniform_u64(200, 12_000)
        };
        ctx.send_with_id(sock, bytes, msg.kind + 1, msg.msg_id);
    }
}

impl Program for TraceServer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        for port in SERVICE_PORTS {
            ctx.listen(port);
        }
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId, msg: Message) {
        let service = ctx.rng().uniform_u64(10, 60);
        ctx.compute(SimDuration::from_micros(service));
        if msg.msg_id.is_multiple_of(8) {
            let token = self.next_token;
            self.next_token += 1;
            self.pending.insert(token, (sock, msg));
            ctx.read_file(FileId(1 + token % 3), 4 * 1024, token);
        } else {
            Self::reply(ctx, sock, msg);
        }
    }

    fn on_io_done(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        if let Some((sock, msg)) = self.pending.remove(&token) {
            Self::reply(ctx, sock, msg);
        }
    }
}

/// A closed-loop client flow: one outstanding request, a seeded request
/// size and think time, until its deadline.
struct TraceClient {
    server: NodeId,
    port: Port,
    deadline: SimTime,
    sock: Option<SocketId>,
    outstanding: Option<u64>,
}

const TOK_THINK: u64 = 1;

impl TraceClient {
    fn issue(&mut self, ctx: &mut ProcCtx<'_>) {
        let Some(sock) = self.sock else { return };
        let bytes = ctx.rng().uniform_u64(100, 6_000);
        let kind = 2 * ctx.rng().uniform_u64(0, 50) as u32;
        self.outstanding = Some(ctx.send(sock, bytes, kind));
    }
}

impl Program for TraceClient {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.connect(self.server, self.port);
    }

    fn on_connected(&mut self, ctx: &mut ProcCtx<'_>, sock: SocketId) {
        self.sock = Some(sock);
        self.issue(ctx);
    }

    fn on_message(&mut self, ctx: &mut ProcCtx<'_>, _sock: SocketId, msg: Message) {
        if self.outstanding != Some(msg.msg_id) {
            return;
        }
        self.outstanding = None;
        if ctx.now() >= self.deadline {
            ctx.exit();
        } else {
            let think = ctx.rng().uniform_u64(20, 400);
            ctx.sleep(SimDuration::from_micros(think), TOK_THINK);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcCtx<'_>, token: u64) {
        if token == TOK_THINK {
            self.issue(ctx);
        }
    }
}

/// Runs the monitored world and captures the server node's events.
fn capture(seed: u64, small: bool) -> CapturedTrace {
    let server = NodeId(0);
    let gpa_node = NodeId(CLIENT_NODES as u32 + 1);
    // The server has an SSD-like disk (its file reads must not stall
    // the single server process for a disk seek) and an NTP-skewed clock.
    let server_config = NodeConfig {
        disk: DiskSpec {
            seek: SimDuration::from_micros(20),
            overhead: SimDuration::from_micros(10),
            ..DiskSpec::default()
        },
        ..NodeConfig::default()
    };
    let mut builder =
        WorldBuilder::new(seed).node_with("server", server_config, ClockSpec::typical_ntp(0, 500));
    for i in 0..CLIENT_NODES {
        builder = builder.node(&format!("client{i}"));
    }
    let mut world = builder
        .node("gpa")
        .full_mesh(LinkSpec::gigabit_lan())
        .build()
        .expect("static topology builds");

    let trace_id = world
        .kprof_mut(server)
        .register(Box::new(TraceAnalyzer::new(EventMask::ALL, 1 << 22)));
    let server_pid = world.spawn(
        server,
        "server",
        Box::new(TraceServer {
            pending: BTreeMap::new(),
            next_token: 0,
        }),
    );
    let sysprof = SysProf::deploy(
        &mut world,
        &[server],
        gpa_node,
        MonitorConfig {
            interaction_filter: Some(SUB_FILTER.to_owned()),
            ..MonitorConfig::default()
        },
    );
    // Subscriptions are in place before any traffic, as they are from
    // the first event of a replay.
    world.run_until(SimTime::from_millis(10));
    let run_for = if small {
        SimDuration::from_millis(150)
    } else {
        SimDuration::from_millis(3_000)
    };
    let deadline = world.now() + run_for;
    for c in 0..CLIENT_NODES {
        for _ in 0..FLOWS_PER_CLIENT {
            world.spawn(
                NodeId(c as u32 + 1),
                "client",
                Box::new(TraceClient {
                    server,
                    port: SERVICE_PORTS[c % 2],
                    deadline,
                    sock: None,
                    outstanding: None,
                }),
            );
        }
    }
    // Drain: every client finishes, idle messages close, the daemon
    // ships its last records.
    world.run_until(deadline + SimDuration::from_secs(1));

    // The live daemon's periodic wakes run every flush interval of true
    // time from deployment; the replay wakes at the same wall times.
    let interval = DaemonConfig::default().flush_interval;
    let end = world.now();
    let clock = world.network().clock(server);
    let ticks = (1..)
        .map(|k| SimTime::ZERO + interval * k)
        .take_while(|&t| t <= end)
        .map(|t| clock.wall(t))
        .collect();
    let node_ip = world.network().node_ip(server);
    let gpa_ep = EndPoint::new(world.network().node_ip(gpa_node), DATA_PORT);
    let trace = world
        .kprof_mut(server)
        .analyzer_as_mut::<TraceAnalyzer>(trace_id)
        .expect("trace analyzer registered");
    assert_eq!(trace.dropped(), 0, "trace ring sized for the whole run");
    let events = trace.take();
    let live_records = sysprof.gpa().borrow().interactions().to_vec();
    CapturedTrace {
        events,
        ticks,
        live_records,
        node: server,
        node_ip,
        server_pid,
        gpa_ep,
    }
}

// ---------------------------------------------------------------------
// The replayed stack
// ---------------------------------------------------------------------

/// An analyzer wrapper that records a span around every callback. It
/// forwards `as_any`/`as_any_mut` to the wrapped analyzer, so downcasts
/// through Kprof (the daemon's `analyzer_as_mut::<Lpa>`) still find it.
struct Traced<A> {
    inner: A,
    span: &'static str,
    tracer: SharedTracer,
}

impl<A: Analyzer> Analyzer for Traced<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interest(&self) -> Interest {
        self.inner.interest()
    }

    fn on_event(&mut self, event: &Event) -> AnalyzerOutcome {
        span(&self.tracer, self.span, || self.inner.on_event(event))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

fn boxed<A: Analyzer>(
    inner: A,
    span: &'static str,
    tracer: Option<&SharedTracer>,
) -> Box<dyn Analyzer> {
    match tracer {
        Some(t) => Box::new(Traced {
            inner,
            span,
            tracer: t.clone(),
        }),
        None => Box::new(inner),
    }
}

/// One node's monitoring stack plus the GPA it reports to.
struct Stack {
    kprof: Kprof,
    lpa: AnalyzerId,
    cpas: Vec<AnalyzerId>,
    daemon: Daemon,
    control: ControlSink,
    hub: Rc<RefCell<Hub>>,
    daemon_stats: Rc<RefCell<DaemonStats>>,
    gpa: Gpa,
    /// Wall time and interaction record count of every data batch the
    /// GPA ingested records from.
    shipped: Vec<(SimTime, u64)>,
}

/// Builds the stack: Kprof with the LPA and the compiled, verified CPA
/// set, the daemon and its control sink, the GPA, and the GPA's two
/// subscriptions delivered through the control sink. With a tracer, the
/// analyzers are registered inside span-recording wrappers.
fn build_stack(trace: &CapturedTrace, tracer: Option<&SharedTracer>) -> Stack {
    let mut kprof = Kprof::new(trace.node);
    let lpa = kprof.register(boxed(
        Lpa::new(trace.node, trace.node_ip, LpaConfig::default()),
        "lpa.on_event",
        tracer,
    ));
    let mut cpas = Vec::new();
    for (i, ((name, src), mask)) in CPA_EVAL_SET.iter().zip(CPA_MASKS).enumerate() {
        let mut cpa =
            CpaAnalyzer::compile(name, &cpa_source(src), mask).expect("CPA_EVAL_SET verifies");
        if i == 0 {
            cpa = cpa.with_predicate(Predicate::new().pids([trace.server_pid]));
        }
        cpas.push(kprof.register(boxed(cpa, "cpa.on_event", tracer)));
    }
    let hub = Rc::new(RefCell::new(Hub::new()));
    let daemon = Daemon::new(lpa, hub.clone(), DaemonConfig::default());
    let daemon_stats = daemon.stats_handle();
    let mut control = ControlSink::new(hub.clone(), daemon_stats.clone(), daemon.resend_handle());
    let gpa = Gpa::new(GpaConfig::default());
    let requester = EndPoint::new(trace.gpa_ep.ip, DAEMON_SRC_PORT);
    for (topic, filter) in [(INTERACTION_TOPIC, Some(SUB_FILTER)), (LOAD_TOPIC, None)] {
        let msg = ControlMsg::Subscribe {
            topic: topic.to_owned(),
            reply_to: trace.gpa_ep,
            filter: filter.map(str::to_owned),
        };
        let out = control.on_message(
            SimTime::ZERO,
            trace.node,
            requester,
            Message {
                msg_id: 0,
                kind: 0,
                bytes: 0,
            },
            Bytes::from(msg.encode()),
        );
        assert!(out.sends.is_empty(), "subscription to {topic} accepted");
    }
    Stack {
        kprof,
        lpa,
        cpas,
        daemon,
        control,
        hub,
        daemon_stats,
        gpa,
        shipped: Vec::new(),
    }
}

/// Delivers a daemon or control-sink output to the GPA and the GPA's
/// replies back through the control sink, until nothing is in flight.
fn deliver(
    stack: &mut Stack,
    trace: &CapturedTrace,
    now: SimTime,
    out: KernelOutput,
    tracer: &SharedTracer,
) {
    let daemon_ep = EndPoint::new(trace.node_ip, DAEMON_SRC_PORT);
    let mut queue: VecDeque<_> = out.sends.into();
    while let Some(send) = queue.pop_front() {
        assert!(
            send.dst == trace.gpa_ep && send.src_port == DAEMON_SRC_PORT,
            "daemon sends only data batches to the GPA"
        );
        let (n, replies) = span(tracer, "gpa.ingest_wire", || {
            stack
                .gpa
                .ingest_wire(now, trace.gpa_ep, daemon_ep, &send.data)
        });
        if n > 0 {
            stack.shipped.push((now, n as u64));
        }
        for reply in replies {
            let data = Bytes::from(reply.encode());
            let msg = Message {
                msg_id: 0,
                kind: 0,
                bytes: data.len() as u64,
            };
            let out = span(tracer, "reliable.reply", || {
                stack
                    .control
                    .on_message(now, trace.node, trace.gpa_ep, msg, data)
            });
            queue.extend(out.sends);
        }
    }
}

/// Replays the whole trace through `stack`, one measured segment per
/// periodic daemon tick (the tick's wake and the events up to the next
/// tick), each with a flush latency per daemon wake. Then, as a segment
/// after the round, the final GPA answers `QUERIES_PER_ROUND` query
/// mixes, alternating between the two service classes.
fn replay_round(stack: &mut Stack, trace: &CapturedTrace, ctx: &Ctx) -> Vec<Segment> {
    let tracer = &ctx.tracer;
    let clock = ctx.clock;
    let stats = NodeStats::default();
    let mut ticks = trace.ticks.iter().copied().peekable();
    let mut segments = Vec::new();
    let mut seg = Segment::default();
    let mut seg_start = clock.now_ns();
    let mut cut = |seg: &mut Segment, segments: &mut Vec<Segment>| {
        let t = clock.now_ns();
        seg.ns = t - seg_start;
        segments.push(std::mem::take(seg));
        seg_start = t;
    };
    let wake =
        |stack: &mut Stack, seg: &mut Segment, now: SimTime, analyzer: Option<AnalyzerId>| {
            let t0 = clock.now_ns();
            let out = span(tracer, "daemon.on_wake", || {
                stack
                    .daemon
                    .on_wake(now, trace.node, analyzer, &mut stack.kprof, &stats)
            });
            deliver(stack, trace, now, out, tracer);
            seg.flush.push((clock.now_ns() - t0) as f64 / 1e3);
        };

    for ev in &trace.events {
        while let Some(tick) = ticks.next_if(|&t| t <= ev.wall) {
            cut(&mut seg, &mut segments);
            wake(stack, &mut seg, tick, None);
        }
        let result = span(tracer, "kprof.emit", || stack.kprof.emit(ev));
        for id in result.buffer_full {
            wake(stack, &mut seg, ev.wall, Some(id));
        }
    }
    for tick in ticks {
        cut(&mut seg, &mut segments);
        wake(stack, &mut seg, tick, None);
    }
    cut(&mut seg, &mut segments);
    seg.after_round = true;
    for q in 0..QUERIES_PER_ROUND {
        let probe = (trace.node, SERVICE_PORTS[q % SERVICE_PORTS.len()]);
        let t0 = clock.now_ns();
        query::mix(&stack.gpa, probe, tracer);
        seg.queries.push((clock.now_ns() - t0) as f64 / 1e3);
    }
    cut(&mut seg, &mut segments);
    segments
}

/// How this node's daemon ships interaction records, measured by
/// replaying the captured trace once, untimed: the record count of each
/// data batch in shipping order, and the mean wall time between
/// batches.
pub fn daemon_batches(ctx: &Ctx) -> (Vec<u64>, SimDuration) {
    let trace = capture(ctx.seed, ctx.small);
    let mut stack = build_stack(&trace, None);
    replay_round(&mut stack, &trace, ctx);
    let shipped = stack.shipped;
    assert!(shipped.len() >= 2, "the daemon ships at least two batches");
    let span = shipped[shipped.len() - 1].0.saturating_since(shipped[0].0);
    let interval = span / (shipped.len() as u64 - 1);
    (shipped.into_iter().map(|(_, n)| n).collect(), interval)
}

/// Adds a traced round's layer counters to the outcome.
fn add_counters(outcome: &mut Outcome, stack: &Stack) {
    let mut add = |name: &'static str, v: u64| {
        *outcome.layers.get_mut(name).expect("declared layer metric") += v as f64;
    };
    let k = stack.kprof.stats();
    add("kprof.delivered", k.events_delivered);
    add("kprof.predicate_rejected", k.predicate_rejections);
    add("kprof.suppressed", k.events_suppressed);
    for id in &stack.cpas {
        let cpa = stack
            .kprof
            .analyzer_as::<CpaAnalyzer>(*id)
            .expect("wrapper forwards downcasts");
        add("cpa.flagged", cpa.flagged());
    }
    let lpa = stack
        .kprof
        .analyzer_as::<Lpa>(stack.lpa)
        .expect("wrapper forwards downcasts");
    add("lpa.records_completed", lpa.records_completed());
    add("lpa.overwritten", lpa.overwritten());
    let d = *stack.daemon_stats.borrow();
    add("daemon.records_published", d.records_published);
    add("daemon.bytes_sent", d.bytes_sent);
    add("daemon.retransmits", d.retransmits);
    add("daemon.resend_evictions", d.resend_evictions);
    let g = stack.gpa.gpa_stats();
    add("gpa.duplicate_batches", g.duplicate_batches);
    add("gpa.out_of_order", g.out_of_order);
    add("gpa.nacks_sent", g.nacks_sent);
    add("gpa.gaps_abandoned", g.gaps_abandoned);
    add("gpa.records_ingested", stack.gpa.interaction_count());
    add("gpa.decode_failures", stack.gpa.decode_failures());
}

/// The fraction of interaction records the subscription filter passed.
fn filter_pass_ratio(stack: &Stack, gpa_ep: EndPoint) -> f64 {
    let hub = stack.hub.borrow();
    let topic = hub
        .topic_id(INTERACTION_TOPIC)
        .expect("daemon created topic");
    let (delivered, filtered) = hub.delivery_stats(topic, gpa_ep).unwrap_or((0, 0));
    delivered as f64 / (delivered + filtered).max(1) as f64
}

/// Checks one round's GPA against the live run.
fn check_round(checks: &mut Checks, stack: &Stack, trace: &CapturedTrace) {
    let got = stack.gpa.interactions();
    checks.check(got == trace.live_records.as_slice(), || {
        format!(
            "replayed GPA holds {} records, live run {}; first difference at {:?}",
            got.len(),
            trace.live_records.len(),
            got.iter()
                .zip(&trace.live_records)
                .position(|(a, b)| a != b)
        )
    });
    checks.check(stack.gpa.decode_failures() == 0, || {
        format!("{} GPA decode failures", stack.gpa.decode_failures())
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let trace = capture(ctx.seed, ctx.small);
    ctx.inputs_ready();
    println!(
        "node_replay: {} events, {} live GPA records",
        trace.events.len(),
        trace.live_records.len()
    );
    let mut outcome = Outcome::default();
    outcome.checks.check(!trace.live_records.is_empty(), || {
        "live run produced no records".into()
    });

    let mut setup = Vec::new();

    let mut reps = Reps::default();
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let mut filter_ratio = 0.0;
    let started = ctx.clock.now_ns();
    let mut i = 0;
    while ctx.more_rounds(started, i, 5) {
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = ctx.clock.now_ns();
            let stack = build_stack(&trace, None);
            setup.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
            drop(stack);
        }
        let traced = ctx.round_traced(i);
        let t0 = ctx.clock.now_ns();
        let mut stack = build_stack(&trace, traced.then_some(&ctx.tracer));
        setup.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
        if traced {
            ctx.tracer.borrow_mut().begin_round();
            let segments = replay_round(&mut stack, &trace, ctx);
            ctx.tracer.borrow_mut().end_round();
            add_counters(&mut outcome, &stack);
            filter_ratio = filter_pass_ratio(&stack, trace.gpa_ep);
            traced_rounds.push(round_ns(&segments) as f64);
        } else {
            let segments = replay_round(&mut stack, &trace, ctx);
            plain_rounds.push(round_ns(&segments) as f64);
            reps.add_round(segments);
        }
        check_round(&mut outcome.checks, &stack, &trace);
        i += 1;
    }

    let (round_ns, flush, queries) = reps.best();
    let records = trace.live_records.len() as f64;
    outcome
        .e2e
        .insert("events_per_s", trace.events.len() as f64 / (round_ns / 1e9));
    outcome
        .e2e
        .insert("records_per_s", records / (round_ns / 1e9));
    outcome.e2e.insert("verdict_s", round_ns / 1e9);
    outcome.e2e.insert("setup_s", median(&setup));
    if !ctx.traced {
        outcome.percentile(ctx, "flush_us_p50", &flush, 50.0);
        outcome.percentile(ctx, "flush_us_p99", &flush, 99.0);
        outcome.percentile(ctx, "query_us_p50", &queries, 50.0);
        outcome.percentile(ctx, "query_us_p90", &queries, 90.0);
    } else {
        let t = ctx.tracer.borrow();
        let emit = t.agg("kprof.emit");
        outcome.layers.insert("kprof.emit.calls", emit.count as f64);
        outcome
            .layers
            .insert("kprof.emit.self_ns", emit.self_ns as f64);
        outcome.span_rows(&t, "cpa.on_event", "cpa.on_event.calls", "cpa.on_event.ns");
        outcome.span_rows(&t, "lpa.on_event", "lpa.on_event.calls", "lpa.on_event.ns");
        outcome.span_rows(
            &t,
            "daemon.on_wake",
            "daemon.on_wake.calls",
            "daemon.on_wake.ns",
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
        outcome.span_rows(&t, "gpa.query", "gpa.query.calls", "gpa.query.ns");
        outcome
            .layers
            .insert("pubsub.filter_pass_ratio", filter_ratio);
        outcome.trace_rows(&t, &traced_rounds, &plain_rounds);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Clock, Tracer};

    #[test]
    fn traced_wrappers_leave_gpa_records_unchanged() {
        let trace = capture(11, true);
        assert!(!trace.live_records.is_empty());
        let clock = Clock::new();
        let ctx = Ctx {
            seed: 11,
            seconds: 0.0,
            traced: true,
            small: true,
            clock,
            tracer: Tracer::shared(clock),
        };
        let mut plain = build_stack(&trace, None);
        replay_round(&mut plain, &trace, &ctx);
        let mut traced = build_stack(&trace, Some(&ctx.tracer));
        ctx.tracer.borrow_mut().begin_round();
        replay_round(&mut traced, &trace, &ctx);
        ctx.tracer.borrow_mut().end_round();
        assert_eq!(plain.gpa.interactions(), trace.live_records.as_slice());
        assert_eq!(traced.gpa.interactions(), plain.gpa.interactions());
        let t = ctx.tracer.borrow();
        assert_eq!(t.agg("kprof.emit").count, trace.events.len() as u64);
        assert!(
            t.agg("lpa.on_event").count > 0,
            "LPA wrapper recorded spans"
        );
        assert!(
            t.agg("cpa.on_event").count > 0,
            "CPA wrappers recorded spans"
        );
    }
}
