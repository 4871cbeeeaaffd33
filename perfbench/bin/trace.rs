//! Host-side timing: one wall clock, an in-memory span tracer, and the
//! sample statistics every workload reports.
//!
//! The tracer records spans from the benchmark's own code, around the
//! calls it makes into each layer. Spans nest: a span's *self* time is
//! its duration minus the time covered by its child spans, so the self
//! times of every span plus the time no span covers add up exactly to
//! the traced wall time (all figures are whole nanoseconds read from
//! the same clock).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The benchmark's one wall-clock source: nanoseconds since the clock
/// was created.
#[derive(Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Per-name span totals.
#[derive(Clone, Copy, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One raw span kept in the bounded sample.
#[derive(Clone, Copy)]
pub struct RawSpan {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Completed spans kept: every `SAMPLE_STRIDE`-th, up to `SAMPLE_CAP`.
const SAMPLE_STRIDE: u64 = 64;
const SAMPLE_CAP: usize = 8192;

/// Span recorder. Disabled tracers ignore `enter`/`exit`, so untraced
/// rounds pay one branch per call site.
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    stack: Vec<Frame>,
    aggs: BTreeMap<&'static str, SpanAgg>,
    samples: Vec<RawSpan>,
    completed: u64,
    /// Wall time of traced rounds, and the part top-level spans cover.
    wall_ns: u64,
    covered_ns: u64,
    round_start: Option<u64>,
}

/// A tracer shared between the benchmark loop and the analyzer
/// wrappers that live inside `Kprof`.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared(clock: Clock) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            clock,
            enabled: false,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            samples: Vec::new(),
            completed: 0,
            wall_ns: 0,
            covered_ns: 0,
            round_start: None,
        }))
    }

    /// Starts a traced round: spans are recorded until `end_round`.
    pub fn begin_round(&mut self) {
        assert!(self.stack.is_empty(), "round begins inside a span");
        self.enabled = true;
        self.round_start = Some(self.clock.now_ns());
    }

    pub fn end_round(&mut self) {
        assert!(self.stack.is_empty(), "round ends inside a span");
        if let Some(start) = self.round_start.take() {
            self.wall_ns += self.clock.now_ns() - start;
        }
        self.enabled = false;
    }

    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.stack.push(Frame {
                name,
                start_ns: self.clock.now_ns(),
                child_ns: 0,
            });
        }
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.clock.now_ns();
        let frame = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - frame.start_ns;
        let agg = self.aggs.entry(frame.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - frame.child_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                Some(p.name)
            }
            None => {
                self.covered_ns += dur;
                None
            }
        };
        if self.completed.is_multiple_of(SAMPLE_STRIDE) && self.samples.len() < SAMPLE_CAP {
            self.samples.push(RawSpan {
                name: frame.name,
                parent,
                start_ns: frame.start_ns,
                end_ns,
            });
        }
        self.completed += 1;
    }

    pub fn agg(&self, name: &str) -> SpanAgg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn aggs(&self) -> &BTreeMap<&'static str, SpanAgg> {
        &self.aggs
    }

    pub fn samples(&self) -> &[RawSpan] {
        &self.samples
    }

    /// Total wall time of traced rounds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Traced wall time no span covers (benchmark code between calls).
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns - self.covered_ns
    }

    /// Sum of every span's self time.
    pub fn self_total_ns(&self) -> u64 {
        self.aggs.values().map(|a| a.self_ns).sum()
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit();
    out
}

/// A latency sample set reported as percentiles with its count. Every
/// sample carries its position: which segment of a round it was taken
/// in and its index there, the same in every repetition of the round.
#[derive(Default)]
pub struct Samples {
    values: Vec<(f64, u64)>,
}

/// A percentile of a [`Samples`] set.
pub struct Percentile {
    pub value: f64,
    /// Samples above its rank.
    pub beyond: usize,
    /// Distinct sample positions among those: tail events, not
    /// repetitions of one.
    pub positions_beyond: usize,
}

impl Samples {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Adds the samples of segment `segment`, positioned by index.
    fn extend(&mut self, segment: usize, values: &[f64]) {
        let base = (segment as u64) << 32;
        self.values.extend(
            values
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, base | j as u64)),
        );
    }

    /// Nearest-rank `p`-th percentile.
    pub fn percentile(&self, p: f64) -> Percentile {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        if v.is_empty() {
            return Percentile {
                value: 0.0,
                beyond: 0,
                positions_beyond: 0,
            };
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        let mut positions: Vec<u64> = v[rank..].iter().map(|&(_, pos)| pos).collect();
        positions.sort_unstable();
        positions.dedup();
        Percentile {
            value: v[rank - 1].0,
            beyond: v.len() - rank,
            positions_beyond: positions.len(),
        }
    }
}

/// One measured stretch of a round: its wall time and the latency
/// samples (µs) taken in it.
#[derive(Default)]
pub struct Segment {
    /// Wall time; repetitions of a segment are ranked by it.
    pub ns: u64,
    /// A measurement taken after the round's work (query mixes on its
    /// final state, extra dissemination rounds of a finished world):
    /// its time is not part of the round time.
    pub after_round: bool,
    pub flush: Vec<f64>,
    pub queries: Vec<f64>,
}

/// The round time of a round's segments.
pub fn round_ns(segments: &[Segment]) -> u64 {
    segments
        .iter()
        .filter(|s| !s.after_round)
        .map(|s| s.ns)
        .sum()
}

/// How many of `n` repetitions are kept: the fastest twentieth, at
/// least one and at most twenty. The cap keeps only the quietest
/// moments of long runs (hundreds of short rounds).
fn kept(n: usize) -> usize {
    (n / 20).clamp(1, 20)
}

/// Median of `values` (nearest rank; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Mean of the [`kept`] fastest of `values`.
pub fn best_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = kept(v.len()).min(v.len());
    if k == 0 {
        return 0.0;
    }
    v[..k].iter().sum::<f64>() / k as f64
}

/// Repetitions of identical rounds, each cut into the same segments.
///
/// Every round does the same work on the same inputs, so the spread
/// between repetitions of one segment is mostly the host's doing (other
/// tenants of a shared machine, frequency changes). For every segment
/// only the [`kept`] repetitions with the shortest segment time are
/// kept: the round time is the sum over segments of their mean time,
/// and the latency percentiles pool every sample they took, so a slow
/// call inside a quiet repetition stays in the tail.
///
/// How finely a round is cut decides what counts as a quiet
/// repetition. A workload whose work is deterministic on one thread
/// (`node_replay`, `scenarios`) repeats exactly, so a slower repetition
/// of a segment is the host's doing and its segments are a few
/// milliseconds long. `gpa_fanin` runs digest workers on threads of
/// their own, whose scheduling is the program's behaviour; its segments
/// are long enough that one slow call barely changes their rank.
#[derive(Default)]
pub struct Reps {
    segments: Vec<Vec<Segment>>,
}

impl Reps {
    pub fn add_round(&mut self, round: Vec<Segment>) {
        for (i, seg) in round.into_iter().enumerate() {
            if self.segments.len() == i {
                self.segments.push(Vec::new());
            }
            self.segments[i].push(seg);
        }
    }

    /// The kept round time in ns, and the kept flush and query samples.
    pub fn best(&self) -> (f64, Samples, Samples) {
        let (mut ns, mut flush, mut queries) = (0.0, Samples::default(), Samples::default());
        for (i, reps) in self.segments.iter().enumerate() {
            let mut fastest: Vec<&Segment> = reps.iter().collect();
            fastest.sort_by_key(|s| s.ns);
            fastest.truncate(kept(reps.len()));
            if !reps[0].after_round {
                ns += fastest.iter().map(|s| s.ns as f64).sum::<f64>() / fastest.len() as f64;
            }
            for seg in fastest {
                flush.extend(i, &seg.flush);
                queries.extend(i, &seg.queries);
            }
        }
        (ns, flush, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_add_up_to_wall() {
        let tracer = Tracer::shared(Clock::new());
        tracer.borrow_mut().begin_round();
        for _ in 0..100 {
            span(&tracer, "outer", || {
                span(&tracer, "inner", || std::hint::black_box(3 + 4));
                span(&tracer, "inner", || std::hint::black_box(5 + 6));
            });
        }
        tracer.borrow_mut().end_round();
        let t = tracer.borrow();
        assert_eq!(t.agg("outer").count, 100);
        assert_eq!(t.agg("inner").count, 200);
        assert_eq!(
            t.agg("outer").total_ns,
            t.agg("outer").self_ns + t.agg("inner").total_ns
        );
        assert_eq!(t.self_total_ns() + t.unattributed_ns(), t.wall_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::shared(Clock::new());
        span(&tracer, "x", || ());
        assert!(tracer.borrow().aggs().is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank_with_count_and_positions_beyond() {
        let mut s = Samples::default();
        s.extend(0, &(1..=100).map(f64::from).collect::<Vec<_>>());
        let p = s.percentile(50.0);
        assert_eq!((p.value, p.beyond, p.positions_beyond), (50.0, 50, 50));
        let p = s.percentile(99.0);
        assert_eq!((p.value, p.beyond, p.positions_beyond), (99.0, 1, 1));
        // Ten repetitions of one slow position are one tail event.
        let mut s = Samples::default();
        for _ in 0..10 {
            s.extend(0, &[1.0, 1.0, 1.0, 9.0]);
        }
        let p = s.percentile(50.0);
        assert_eq!((p.value, p.beyond, p.positions_beyond), (1.0, 20, 4));
        let p = s.percentile(75.0);
        assert_eq!((p.value, p.beyond, p.positions_beyond), (1.0, 10, 1));
    }

    #[test]
    fn reps_keep_the_fastest_twentieth_of_each_segment_with_all_its_samples() {
        let mut reps = Reps::default();
        for r in 0..40u64 {
            let seg = |ns: u64, flush: Vec<f64>, queries: Vec<f64>| Segment {
                ns,
                after_round: false,
                flush,
                queries,
            };
            // Segment 0 is slow in early rounds, segment 1 in late ones;
            // within segment 1 the second sample is the slow one, and
            // in segment 0 the first query sample is slow late on. A
            // measurement after the round is ranked but not timed.
            let after = Segment {
                after_round: true,
                ..seg(1000 + r, Vec::new(), vec![r as f64])
            };
            reps.add_round(vec![
                seg(100 - r, vec![1.0], vec![r as f64, 1.0]),
                seg(50 + r, vec![r as f64, 40.0 - r as f64], Vec::new()),
                after,
            ]);
        }
        let (ns, flush, queries) = reps.best();
        assert_eq!(ns, (61.0 + 62.0) / 2.0 + (50.0 + 51.0) / 2.0);
        let sorted = |s: &Samples| {
            let mut v: Vec<f64> = s.values.iter().map(|v| v.0).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sorted(&flush), vec![0.0, 1.0, 1.0, 1.0, 39.0, 40.0]);
        assert_eq!(sorted(&queries), vec![0.0, 1.0, 1.0, 1.0, 38.0, 39.0]);
        assert_eq!(best_mean(&[5.0, 1.0, 9.0]), 1.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(kept(1000), 20);
    }
}
