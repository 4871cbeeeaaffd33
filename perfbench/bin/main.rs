//! One benchmark for the whole SysProf monitoring path.
//!
//! ```text
//! perfbench --workload <node_replay|gpa_fanin|scenarios> --seed N
//!           --seconds S --trace <0|1> [--size full|small]
//! ```
//!
//! Each workload is a closed loop driven by this single-threaded process
//! through the public entry points of the monitoring stack. Inputs are
//! generated from `--seed` before any timing starts. With `--trace 0`
//! the run reports the end-to-end metrics; with `--trace 1` it reports
//! the per-layer breakdown from spans recorded around the calls into
//! each layer (alternate rounds run untraced, giving the tracing
//! overhead). Every run checks the outputs it produced; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and the exit code is 1 if any check failed.
//! See `perfbench/README.md` for what every metric measures.

mod fanin;
mod metrics;
mod query;
mod replay;
mod scenarios;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use trace::{Clock, Samples, SharedTracer, Tracer};

/// Options shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub small: bool,
    pub clock: Clock,
    pub tracer: SharedTracer,
}

impl Ctx {
    /// Whether another round should start: rounds run until `seconds`
    /// of measured time have passed, and at least `full_min` of them in
    /// a full-size untraced run (one untraced and one traced round in a
    /// traced run, one round for small inputs).
    pub fn more_rounds(&self, started_ns: u64, done: usize, full_min: usize) -> bool {
        let min = match (self.traced, self.small) {
            (true, _) => 2,
            (false, true) => 1,
            (false, false) => full_min,
        };
        let elapsed = (self.clock.now_ns() - started_ns) as f64 / 1e9;
        done < min || elapsed < self.seconds
    }

    /// Marks the end of input generation. Resets the kernel's peak
    /// resident-set mark (`VmHWM`) to the current resident set, so the
    /// `peak_rss_mb` read at exit covers the measured phase (the inputs
    /// it replays and the stacks it builds), not the memory generation
    /// used and released.
    pub fn inputs_ready(&self) {
        std::fs::write("/proc/self/clear_refs", "5")
            .expect("resetting the peak resident set through /proc/self/clear_refs");
        println!("inputs ready: {:.1} MiB resident", proc_status_mb("VmRSS:"));
    }

    /// Whether round `i` is traced: in a traced run, odd rounds record
    /// spans and even rounds run untraced for the overhead comparison.
    pub fn round_traced(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }
}

/// Correctness checks made during a run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What a workload hands back: its checks plus metric values by name.
/// End-to-end values come from untraced rounds; layer values only from
/// traced ones.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

/// An outcome whose layer metrics all start at zero: a layer the
/// workload never calls reads zero.
impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            checks: Checks::default(),
            e2e: BTreeMap::new(),
            layers: metrics::PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }
}

impl Outcome {
    /// Records percentile `p` of `samples` as metric `name` and prints
    /// it with its sample count and the number of distinct sample
    /// positions beyond it. A full-size run fails a check unless at
    /// least ten samples lie beyond it.
    pub fn percentile(&mut self, ctx: &Ctx, name: &'static str, samples: &Samples, p: f64) {
        let pct = samples.percentile(p);
        println!(
            "percentile {name} = {:.3} us (p{p}, n={}, {} beyond from {} positions)",
            pct.value,
            samples.len(),
            pct.beyond,
            pct.positions_beyond
        );
        if !ctx.small {
            self.checks.check(pct.beyond >= 10, || {
                format!(
                    "{name}: only {} of {} samples beyond p{p}",
                    pct.beyond,
                    samples.len()
                )
            });
        }
        self.e2e.insert(name, pct.value);
    }

    /// Fills the tracing rows from the tracer and the overhead: the kept
    /// traced round time over the kept untraced one, same run.
    pub fn trace_rows(&mut self, tracer: &Tracer, traced_round_ns: &[f64], plain_round_ns: &[f64]) {
        assert_eq!(
            tracer.self_total_ns() + tracer.unattributed_ns(),
            tracer.wall_ns(),
            "span self times plus unattributed time must equal traced wall time"
        );
        let plain = trace::best_mean(plain_round_ns);
        let ratio = if plain > 0.0 {
            trace::best_mean(traced_round_ns) / plain
        } else {
            0.0
        };
        self.layers.insert("trace.overhead_ratio", ratio);
        self.layers
            .insert("trace.unattributed_ns", tracer.unattributed_ns() as f64);
        self.layers.insert("trace.wall_ns", tracer.wall_ns() as f64);
        self.layers
            .insert("trace.self_total_ns", tracer.self_total_ns() as f64);
    }

    /// Copies a span's count and total time into `<name>.calls`/`.ns`.
    pub fn span_rows(
        &mut self,
        tracer: &Tracer,
        span: &str,
        calls: &'static str,
        ns: &'static str,
    ) {
        let agg = tracer.agg(span);
        self.layers.insert(calls, agg.count as f64);
        self.layers.insert(ns, agg.total_ns as f64);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    small: bool,
}

/// Where a traced run writes its spans, relative to the working
/// directory (the repository root when run as documented).
const RESULTS_DIR: &str = "perfbench/results";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <node_replay|gpa_fanin|scenarios> --seed N \
         --seconds S --trace <0|1> [--size full|small]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--size" => {
                args.small = match value.as_str() {
                    "full" => false,
                    "small" => true,
                    _ => usage("--size takes full or small"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// A memory figure of this process from `/proc/self/status`, in MiB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit the checkout was made from, when it carries git metadata.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match resolved.trim() {
        "" => "unknown".to_owned(),
        c => c.to_owned(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// Writes the traced run's span aggregates and raw span sample.
fn write_trace(args: &Args, host: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path =
        Path::new(RESULTS_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"host\":{host},\"wall_ns\":{},",
        tracer.wall_ns()
    ));
    s.push_str(&format!(
        "\"unattributed_ns\":{},\"spans\":{{",
        tracer.unattributed_ns()
    ));
    let aggs: Vec<String> = tracer
        .aggs()
        .iter()
        .map(|(name, a)| {
            format!(
                "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                json_str(name),
                a.count,
                a.total_ns,
                a.self_ns
            )
        })
        .collect();
    s.push_str(&aggs.join(","));
    s.push_str("},\"sample\":[");
    let raw: Vec<String> = tracer
        .samples()
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(r.name),
                r.parent.map(json_str).unwrap_or_else(|| "null".into()),
                r.start_ns,
                r.end_ns
            )
        })
        .collect();
    s.push_str(&raw.join(","));
    s.push_str("]}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    let clock = Clock::new();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        small: args.small,
        clock,
        tracer: Tracer::shared(clock),
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let host = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":{},\"nproc\":{nproc},\"profile\":{},\"commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.traced),
        json_str(if args.small { "small" } else { "full" }),
        json_str(profile),
        json_str(&commit()),
    );
    println!("host {host}");

    let mut outcome = match args.workload.as_str() {
        "node_replay" => replay::run(&ctx),
        "gpa_fanin" => fanin::run(&ctx),
        "scenarios" => scenarios::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    // Peak since `Ctx::inputs_ready`; each run is one workload in a fresh
    // process, so no other workload's high-water mark is included.
    outcome.e2e.insert("peak_rss_mb", proc_status_mb("VmHWM:"));

    let declared: &[(&str, &str)] = if args.traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let values = if args.traced {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("workload did not report metric {name}"));
        println!("metric {name} = {} {unit}", json_num(value));
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    if args.traced {
        match write_trace(&args, &host, &ctx.tracer.borrow()) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write trace: {e}");
                std::process::exit(1);
            }
        }
    }
    let checks = &outcome.checks;
    let correct = checks.failed == 0 && checks.attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        fields.join(",")
    );
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").expect("stdout is writable");
    stdout.flush().expect("stdout is writable");
    if !correct {
        std::process::exit(1);
    }
}
