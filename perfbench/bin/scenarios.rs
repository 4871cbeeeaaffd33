//! `scenarios`: the scenario library end to end, from world build to
//! diagnosis verdict.
//!
//! A pass runs `KvStoreScenario`, `FanoutScenario`, `AllreduceScenario`
//! and `CdnScenario` (default specs) over a seed list — seed 7, whose
//! verdicts are the goldens `tests/scenarios.rs` pins, plus seeds drawn
//! from `--seed` — through `ScenarioSpec::run` and `diagnose`. Here the
//! simulator dominates and the monitoring stack runs inside it at
//! realistic ratios. After each verdict, outside the verdict time, the
//! finished run serves the query mix, a few more periodic dissemination
//! rounds of its daemons, and a set-up measurement of the monitoring
//! stack on a fresh world of the same shape.

use simcore::{NodeId, SimRng};
use simnet::{LinkSpec, Port};
use simos::{World, WorldBuilder};
use sysprof::{DaemonConfig, MonitorConfig, SysProf};
use sysprof_apps::{
    AllreduceScenario, CdnScenario, FanoutScenario, KvStoreScenario, ScenarioRun, ScenarioSpec,
};

use crate::trace::{median, span, Reps, Segment};
use crate::{query, Checks, Ctx, Outcome};

/// The seed whose verdicts `tests/scenarios.rs` pins.
const GOLDEN_SEED: u64 = 7;
/// Seeds per pass drawn from `--seed`, besides the golden one.
const DRAWN_SEEDS: usize = 3;
/// Query mixes and extra dissemination rounds per finished run.
const QUERIES_PER_RUN: usize = 16;
const FLUSH_ROUNDS_PER_RUN: usize = 100;
/// Extra dissemination rounds per measured segment.
const FLUSH_ROUNDS_PER_SEGMENT: usize = 10;
/// Monitoring-stack deployments timed per finished run, for `setup_s`.
const SETUPS_PER_RUN: usize = 5;

/// The pathology a verdict must name, and the exact golden verdict at
/// [`GOLDEN_SEED`].
struct Expect {
    prefix: String,
    golden: &'static str,
}

/// Counters of one pass (or of all traced passes).
#[derive(Default)]
struct Tally {
    events: u64,
    records: u64,
    delivered: u64,
    rejected: u64,
    suppressed: u64,
    lpa_events: u64,
    lpa_completed: u64,
    lpa_overwritten: u64,
    wakes: u64,
    published: u64,
    bytes_sent: u64,
    retransmits: u64,
    resend_evictions: u64,
    batches: u64,
    duplicates: u64,
    out_of_order: u64,
    nacks: u64,
    gaps_abandoned: u64,
    decode_failures: u64,
    sim_s: f64,
    packets: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.events += o.events;
        self.records += o.records;
        self.delivered += o.delivered;
        self.rejected += o.rejected;
        self.suppressed += o.suppressed;
        self.lpa_events += o.lpa_events;
        self.lpa_completed += o.lpa_completed;
        self.lpa_overwritten += o.lpa_overwritten;
        self.wakes += o.wakes;
        self.published += o.published;
        self.bytes_sent += o.bytes_sent;
        self.retransmits += o.retransmits;
        self.resend_evictions += o.resend_evictions;
        self.batches += o.batches;
        self.duplicates += o.duplicates;
        self.out_of_order += o.out_of_order;
        self.nacks += o.nacks;
        self.gaps_abandoned += o.gaps_abandoned;
        self.decode_failures += o.decode_failures;
        self.sim_s += o.sim_s;
        self.packets += o.packets;
    }
}

/// Reads every node's and the monitor's counters off a finished run.
fn tally_run(world: &World, sysprof: &SysProf) -> Tally {
    let mut t = Tally {
        sim_s: world.now().as_secs_f64(),
        ..Tally::default()
    };
    for n in 0..world.node_count() {
        let node = NodeId(n as u32);
        let k = world.kprof(node).stats();
        t.events += k.events_generated + k.events_suppressed;
        t.delivered += k.events_delivered;
        t.rejected += k.predicate_rejections;
        t.suppressed += k.events_suppressed;
        t.packets += world.node_stats(node).packets_out;
    }
    for &node in sysprof.monitored() {
        if let Some(lpa) = sysprof.lpa(world, node) {
            t.lpa_events += lpa.events_seen();
            t.lpa_completed += lpa.records_completed();
            t.lpa_overwritten += lpa.overwritten();
        }
        if let Some(d) = sysprof.daemon_stats(node) {
            t.wakes += d.wakes;
            t.published += d.records_published;
            t.bytes_sent += d.bytes_sent;
            t.retransmits += d.retransmits;
            t.resend_evictions += d.resend_evictions;
        }
    }
    let gpa = sysprof.gpa();
    let gpa = gpa.borrow();
    let g = gpa.gpa_stats();
    t.records = gpa.interaction_count();
    t.batches = g.batches_received + g.unsequenced_batches;
    t.duplicates = g.duplicate_batches;
    t.out_of_order = g.out_of_order;
    t.nacks = g.nacks_sent;
    t.gaps_abandoned = g.gaps_abandoned;
    t.decode_failures = gpa.decode_failures();
    t
}

/// What a pass measures besides its counters: per scenario run, a
/// segment for its verdict time and, after it, one for the query mixes
/// and one per `FLUSH_ROUNDS_PER_SEGMENT` extra dissemination rounds;
/// and the set-up times.
#[derive(Default)]
struct PassSamples {
    segments: Vec<Segment>,
    setup: Vec<f64>,
}

/// One scenario run at one seed: run and diagnose (the timed verdict
/// path), check the verdict, then the post-verdict measurements.
fn one<S: ScenarioSpec>(
    spec: &S,
    seed: u64,
    expect: &Expect,
    ctx: &Ctx,
    checks: &mut Checks,
    samples: &mut PassSamples,
) -> Tally {
    let clock = ctx.clock;
    let tracer = &ctx.tracer;
    let t0 = clock.now_ns();
    let mut run: ScenarioRun<S::Output> = span(tracer, "simos.run", || spec.run(seed));
    let diagnosis = span(tracer, "apps.diagnose", || spec.diagnose(&run));
    let verdict_ns = clock.now_ns() - t0;

    let verdict = &diagnosis.verdict;
    checks.check(verdict.starts_with(&expect.prefix), || {
        format!(
            "{} seed {seed}: verdict {verdict:?} does not name {:?}",
            spec.name(),
            expect.prefix
        )
    });
    if seed == GOLDEN_SEED {
        checks.check(verdict == expect.golden, || {
            format!(
                "{} seed {seed}: verdict {verdict:?}, golden {:?}",
                spec.name(),
                expect.golden
            )
        });
    }
    let tally = tally_run(&run.world, &run.sysprof);
    samples.segments.push(Segment {
        ns: verdict_ns,
        ..Segment::default()
    });

    {
        let gpa = run.sysprof.gpa();
        let gpa = gpa.borrow();
        let mut probes: Vec<(NodeId, Port)> = gpa
            .all_class_summaries()
            .iter()
            .map(|c| (c.node, c.class_port))
            .collect();
        if probes.is_empty() {
            probes.push((run.sysprof.gpa_node(), Port(0)));
        }
        let mut seg = Segment {
            after_round: true,
            ..Segment::default()
        };
        let start = clock.now_ns();
        for i in 0..QUERIES_PER_RUN {
            let t0 = clock.now_ns();
            query::mix(&gpa, probes[i % probes.len()], tracer);
            seg.queries.push((clock.now_ns() - t0) as f64 / 1e3);
        }
        seg.ns = clock.now_ns() - start;
        samples.segments.push(seg);
    }
    let interval = DaemonConfig::default().flush_interval;
    for _ in 0..FLUSH_ROUNDS_PER_RUN / FLUSH_ROUNDS_PER_SEGMENT {
        let mut seg = Segment {
            after_round: true,
            ..Segment::default()
        };
        let start = clock.now_ns();
        for _ in 0..FLUSH_ROUNDS_PER_SEGMENT {
            let t0 = clock.now_ns();
            span(tracer, "simos.flush_round", || run.world.run_for(interval));
            seg.flush.push((clock.now_ns() - t0) as f64 / 1e3);
        }
        seg.ns = clock.now_ns() - start;
        samples.segments.push(seg);
    }

    let monitored = run.sysprof.monitored().to_vec();
    let gpa_node = run.sysprof.gpa_node();
    for _ in 0..SETUPS_PER_RUN {
        let mut fresh = WorldBuilder::new(seed);
        for n in 0..run.world.node_count() {
            fresh = fresh.node(&format!("n{n}"));
        }
        let mut fresh = fresh
            .full_mesh(LinkSpec::gigabit_lan())
            .build()
            .expect("full mesh builds");
        let t0 = clock.now_ns();
        let deployed = span(tracer, "setup.deploy", || {
            SysProf::deploy(&mut fresh, &monitored, gpa_node, MonitorConfig::default())
        });
        samples.setup.push((clock.now_ns() - t0) as f64 / 1e9);
        drop(deployed);
    }
    tally
}

/// The seed list of a pass: the golden seed plus seeds drawn from
/// `--seed` (just the golden seed for small inputs).
fn seeds(seed: u64, small: bool) -> Vec<u64> {
    let mut rng = SimRng::seed(seed ^ 0x5ce7_a210);
    let mut out = vec![GOLDEN_SEED];
    if !small {
        out.extend((0..DRAWN_SEEDS).map(|_| rng.uniform_u64(1, 1 << 32)));
    }
    out
}

fn pass(seeds: &[u64], ctx: &Ctx, checks: &mut Checks, samples: &mut PassSamples) -> Tally {
    let kv = KvStoreScenario::default();
    let fanout = FanoutScenario::default();
    let allreduce = AllreduceScenario::default();
    let cdn = CdnScenario::default();
    let kv_expect = Expect {
        prefix: "hot shard 0:".into(),
        golden: "hot shard 0: 43% of shard traffic (1492/3476 interactions)",
    };
    let fanout_expect = Expect {
        prefix: format!("slow leaf {} ", fanout.slow_leaf),
        golden: "slow leaf 4 (node 9): mean user 487µs vs leaf-tier median 66µs",
    };
    let allreduce_expect = Expect {
        prefix: format!("straggler rank {}:", allreduce.straggler),
        golden: "straggler rank 2: mean reduce 88µs vs ring median 63µs",
    };
    let cdn_expect = Expect {
        prefix: "origin-bound tail:".into(),
        golden:
            "origin-bound tail: edge p95/p50 = 32x, misses blocked on origin disk (1497µs mean)",
    };
    let mut total = Tally::default();
    for &seed in seeds {
        total.add(&one(&kv, seed, &kv_expect, ctx, checks, samples));
        total.add(&one(&fanout, seed, &fanout_expect, ctx, checks, samples));
        total.add(&one(
            &allreduce,
            seed,
            &allreduce_expect,
            ctx,
            checks,
            samples,
        ));
        total.add(&one(&cdn, seed, &cdn_expect, ctx, checks, samples));
    }
    total
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seeds = seeds(ctx.seed, ctx.small);
    ctx.inputs_ready();
    println!("scenarios: seeds {seeds:?}");
    let mut outcome = Outcome::default();
    let mut reps = Reps::default();
    let mut setup = Vec::new();
    let mut traced_tally = Tally::default();
    let mut plain_tally = Tally::default();
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let started = ctx.clock.now_ns();
    let mut i = 0;
    while ctx.more_rounds(started, i, 3) {
        let t0 = ctx.clock.now_ns();
        let mut samples = PassSamples::default();
        if ctx.round_traced(i) {
            ctx.tracer.borrow_mut().begin_round();
            let t = pass(&seeds, ctx, &mut outcome.checks, &mut samples);
            ctx.tracer.borrow_mut().end_round();
            traced_rounds.push((ctx.clock.now_ns() - t0) as f64);
            traced_tally.add(&t);
        } else {
            plain_tally = pass(&seeds, ctx, &mut outcome.checks, &mut samples);
            plain_rounds.push((ctx.clock.now_ns() - t0) as f64);
            reps.add_round(std::mem::take(&mut samples.segments));
        }
        setup.extend(samples.setup);
        i += 1;
    }

    let (round_ns, flush, queries) = reps.best();
    let secs = round_ns / 1e9;
    outcome
        .e2e
        .insert("events_per_s", plain_tally.events as f64 / secs);
    outcome
        .e2e
        .insert("records_per_s", plain_tally.records as f64 / secs);
    outcome.e2e.insert("verdict_s", secs);
    outcome.e2e.insert("setup_s", median(&setup));
    if !ctx.traced {
        outcome.percentile(ctx, "flush_us_p50", &flush, 50.0);
        outcome.percentile(ctx, "flush_us_p99", &flush, 99.0);
        outcome.percentile(ctx, "query_us_p50", &queries, 50.0);
        outcome.percentile(ctx, "query_us_p90", &queries, 90.0);
    } else {
        let t = ctx.tracer.borrow();
        let x = &traced_tally;
        for (name, v) in [
            ("kprof.emit.calls", x.events),
            ("kprof.delivered", x.delivered),
            ("kprof.predicate_rejected", x.rejected),
            ("kprof.suppressed", x.suppressed),
            ("lpa.on_event.calls", x.lpa_events),
            ("lpa.records_completed", x.lpa_completed),
            ("lpa.overwritten", x.lpa_overwritten),
            ("daemon.on_wake.calls", x.wakes),
            ("daemon.records_published", x.published),
            ("daemon.bytes_sent", x.bytes_sent),
            ("daemon.retransmits", x.retransmits),
            ("daemon.resend_evictions", x.resend_evictions),
            ("gpa.ingest_wire.calls", x.batches),
            ("gpa.duplicate_batches", x.duplicates),
            ("gpa.out_of_order", x.out_of_order),
            ("gpa.nacks_sent", x.nacks),
            ("gpa.gaps_abandoned", x.gaps_abandoned),
            ("gpa.records_ingested", x.records),
            ("gpa.decode_failures", x.decode_failures),
            ("simos.events", x.events),
            ("simnet.packets", x.packets),
        ] {
            outcome.layers.insert(name, v as f64);
        }
        outcome.layers.insert("simos.sim_s", x.sim_s);
        outcome
            .layers
            .insert("simos.run.ns", t.agg("simos.run").total_ns as f64);
        outcome
            .layers
            .insert("apps.diagnose.ns", t.agg("apps.diagnose").total_ns as f64);
        outcome.span_rows(&t, "gpa.query", "gpa.query.calls", "gpa.query.ns");
        outcome.trace_rows(&t, &traced_rounds, &plain_rounds);
    }
    outcome
}
