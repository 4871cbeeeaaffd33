//! The metric catalogue. Names and units here are what the benchmark
//! prints; `BENCHMARK.json` declares the same lists (a test compares
//! them).

pub const WORKLOADS: [&str; 3] = ["node_replay", "gpa_fanin", "scenarios"];

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("events_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("flush_us_p50", "us"),
    ("flush_us_p99", "us"),
    ("query_us_p50", "us"),
    ("query_us_p90", "us"),
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs of every workload. A
/// layer a workload does not call reports zero there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("kprof.emit.calls", "count"),
    ("kprof.emit.self_ns", "ns"),
    ("kprof.delivered", "count"),
    ("kprof.predicate_rejected", "count"),
    ("kprof.suppressed", "count"),
    ("cpa.on_event.calls", "count"),
    ("cpa.on_event.ns", "ns"),
    ("cpa.flagged", "count"),
    ("lpa.on_event.calls", "count"),
    ("lpa.on_event.ns", "ns"),
    ("lpa.records_completed", "count"),
    ("lpa.overwritten", "count"),
    ("daemon.on_wake.calls", "count"),
    ("daemon.on_wake.ns", "ns"),
    ("daemon.records_published", "count"),
    ("daemon.bytes_sent", "bytes"),
    ("pubsub.filter_pass_ratio", "ratio"),
    ("reliable.seal.calls", "count"),
    ("reliable.seal.ns", "ns"),
    ("reliable.reply.calls", "count"),
    ("reliable.reply.ns", "ns"),
    ("daemon.retransmits", "count"),
    ("daemon.resend_evictions", "count"),
    ("gpa.duplicate_batches", "count"),
    ("gpa.out_of_order", "count"),
    ("gpa.nacks_sent", "count"),
    ("gpa.gaps_abandoned", "count"),
    ("gpa.ingest_wire.calls", "count"),
    ("gpa.ingest_wire.ns", "ns"),
    ("gpa.records_ingested", "count"),
    ("gpa.records_evicted", "count"),
    ("gpa.decode_failures", "count"),
    ("digest.events", "count"),
    ("digest.read.calls", "count"),
    ("digest.read.ns", "ns"),
    ("gpa.query.calls", "count"),
    ("gpa.query.ns", "ns"),
    ("simos.run.ns", "ns"),
    ("simos.events", "count"),
    ("simos.sim_s", "s"),
    ("simnet.packets", "count"),
    ("apps.diagnose.ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ns", "ns"),
    ("trace.wall_ns", "ns"),
    ("trace.self_total_ns", "ns"),
];
