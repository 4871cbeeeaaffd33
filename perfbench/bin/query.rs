//! The GPA query mix every workload runs against its GPA.

use simcore::NodeId;
use simnet::Port;
use sysprof::{Gpa, GpaQuery};
use sysprof_bench::hotpath::DIGEST_GLOBALS;

use crate::trace::{span, SharedTracer};

/// Answers one [`GpaQuery`] from the GPA, exactly as the GPA's query
/// sink dispatches it, and folds the answer into a checksum.
fn answer(gpa: &Gpa, query: &GpaQuery) -> u64 {
    match query {
        GpaQuery::InteractionCount => gpa.interaction_count(),
        GpaQuery::ClassSummary { node, class_port } => gpa
            .class_summary(*node, Port(*class_port))
            .map_or(0, |s| s.count),
        GpaQuery::NodeLoad { node } => gpa.node_load(*node).map_or(0, |l| l.reports),
        GpaQuery::AllClassSummaries => gpa.all_class_summaries().len() as u64,
    }
}

/// Runs the fixed query mix: every [`GpaQuery`] kind (the per-class and
/// per-node ones against `probe`), then a read of every digest static
/// when a digest is installed — the digest's merge barrier. Returns a
/// checksum of the answers.
pub fn mix(gpa: &Gpa, probe: (NodeId, Port), tracer: &SharedTracer) -> u64 {
    let (node, port) = probe;
    let queries = [
        GpaQuery::InteractionCount,
        GpaQuery::ClassSummary {
            node,
            class_port: port.0,
        },
        GpaQuery::NodeLoad { node },
        GpaQuery::AllClassSummaries,
    ];
    let mut sum = 0u64;
    for q in &queries {
        sum = sum.wrapping_add(span(tracer, "gpa.query", || answer(gpa, q)));
    }
    if gpa.digest().is_some() {
        for name in DIGEST_GLOBALS {
            let v = span(tracer, "digest.read", || gpa.digest_global(name));
            if let Some(ecode::Value::Int(i)) = v {
                sum = sum.wrapping_add(i as u64);
            }
        }
    }
    std::hint::black_box(sum)
}
