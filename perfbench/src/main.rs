//! The repository's benchmark: two workloads over the whole
//! reproduction stack, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop with one caller: it sets up its
//! inputs from the seed, then issues a weighted mix of operations over
//! the stack until `--seconds` have elapsed. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads, metrics and the
//! predictions each per-layer metric carries.

mod repro;
mod sched;
mod stats;
mod step;
mod stream;
mod tracer;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pai_core::PerfModel;
use pai_par::Threads;

use tracer::{SpanId, Tracer};

/// Times the whole set-up is repeated; `setup_s` is the median. A
/// set-up takes 20–100 ms, short enough that one host hiccup doubles
/// it, so the median needs many repeats.
const SETUP_REPEATS: usize = 21;
/// Fewest runs of the main operation whatever `--seconds` says: a
/// median of three survives one outlier. A traced run needs one more,
/// so it has two untraced and two traced runs.
const MIN_MAIN_RUNS: u64 = 3;
/// Directory (relative to the working directory) for the detailed
/// report and the span dump.
const OUT_DIR: &str = ".perfbench_out";

/// The operations a workload issues. Each is one call sequence a
/// user of the system waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Every experiment id through `run_experiment`.
    Repro,
    /// Ingest the corrupted stream, building the what-if index.
    Ingest,
    /// A closed loop of what-if queries, one per seeded bandwidth,
    /// against the latest index.
    Query,
    /// Replay the schedule under FIFO first-fit.
    Fifo,
    /// Replay the schedule under QSSF.
    Qssf,
    /// Price the population on the three DAG strategies.
    Pricing,
    /// Build, lower, evaluate and simulate the 18 zoo graphs.
    Zoo,
}

/// Every operation. `Ingest` precedes `Query`, so the first query
/// finds an index.
pub const OPS: [Op; 7] = [
    Op::Repro,
    Op::Ingest,
    Op::Query,
    Op::Fifo,
    Op::Qssf,
    Op::Pricing,
    Op::Zoo,
];

/// Input sizes of the operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub repro_jobs: usize,
    pub stream_jobs: usize,
    pub sched_jobs: usize,
    pub pricing_jobs: usize,
}

/// One workload: a mix of operations in which one runs at production
/// size and takes most of the time, and the others run small.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The operation `wall_s` times.
    pub main: Op,
    pub sizes: Sizes,
    /// Share of the run's time each operation gets, in [`OPS`] order.
    pub weights: [u32; 7],
}

/// The small sizes every operation runs at when it is not the one that
/// names the workload.
const SMALL: Sizes = Sizes {
    repro_jobs: 1_000,
    stream_jobs: 131_072,
    sched_jobs: 10_000,
    pricing_jobs: 20_000,
};

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "repro-all",
        main: Op::Repro,
        sizes: Sizes {
            repro_jobs: 20_000,
            ..SMALL
        },
        weights: [8, 1, 2, 1, 1, 1, 1],
    },
    Workload {
        name: "sched-deep-queue",
        main: Op::Qssf,
        sizes: Sizes {
            sched_jobs: 20_000,
            ..SMALL
        },
        weights: [1, 1, 2, 1, 6, 1, 1],
    },
];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("ingest_jobs_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("fifo_jobs_per_s", "1/s"),
    ("qssf_jobs_per_s", "1/s"),
    ("dag_jobs_per_s", "1/s"),
    ("zoo_graphs_per_s", "1/s"),
];

/// Per-layer metrics other than the per-experiment `repro.<id>_s`:
/// name, unit.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("repro.context_s", "s"),
    ("trace.sample_s", "s"),
    ("trace.ingest_s", "s"),
    ("core.validate_s", "s"),
    ("trace.checkpoint_s", "s"),
    ("trace.checkpoint_bytes", "bytes"),
    ("trace.ingested", "count"),
    ("trace.quarantined", "count"),
    ("core.query_s", "s"),
    ("core.whatif_rows", "count"),
    ("core.whatif_scan_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("core.characterize_s", "s"),
    ("sched.templates_s", "s"),
    ("sched.realize_s", "s"),
    ("sched.run_s.fifo-first-fit", "s"),
    ("sched.run_s.qssf", "s"),
    ("sched.place_s", "s"),
    ("sched.place_calls", "count"),
    ("sched.place_refused", "count"),
    ("sched.head_scan_len", "count"),
    ("sched.max_queue_depth", "count"),
    ("sched.events", "count"),
    ("pricing.additive_s", "s"),
    ("dag.lower_s", "s"),
    ("dag.evaluate_s", "s"),
    ("dag.tasks", "count"),
    ("dag.messages", "count"),
    ("dag.overlap_above_serial", "count"),
    ("graph.build_s", "s"),
    ("profiler.extract_s", "s"),
    ("dag.from_graph_s", "s"),
    ("dag.zoo_evaluate_s", "s"),
    ("sim.run_s", "s"),
    ("bench.main_untraced_s", "s"),
    ("bench.main_traced_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("ratio.query_vs_characterize", "x"),
    ("ratio.checkpoint_share_pct", "%"),
    ("ratio.dag_vs_additive", "x"),
    ("ratio.fifo_vs_qssf", "x"),
    ("ratio.scan_vs_memcpy", "x"),
    ("ratio.place_refused_share", "x"),
    ("host.nproc", "count"),
    ("host.threads", "count"),
];

/// Every per-layer metric, the per-experiment ones included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        pai_repro::ALL_EXPERIMENTS
            .iter()
            .map(|id| (format!("repro.{id}_s"), "s")),
    );
    out
}

/// What every pipeline is given.
pub struct Env {
    pub seed: u64,
    pub threads: Threads,
    pub model: PerfModel,
}

/// Samples, counters and outcomes collected while passes run.
#[derive(Debug, Default)]
pub struct Record {
    /// End-to-end sample series by name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Throughputs by name: total work and total seconds.
    pub rates: BTreeMap<String, (f64, f64)>,
    /// Work counters of the current operation run.
    pub counters: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches: each makes the run incorrect.
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
}

impl Record {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// One timed run that did `work` units in `secs`. The throughput
    /// reported is total work over total time, which averages the
    /// host's speed over the run instead of picking one state of it.
    pub fn rate(&mut self, name: &str, work: f64, secs: f64) {
        let total = self.rates.entry(name.to_string()).or_default();
        total.0 += work;
        total.1 += secs;
        self.sample(name, work / secs);
    }

    /// Total work over total time of a throughput, 0 when none ran.
    pub fn throughput(&self, name: &str) -> f64 {
        self.rates
            .get(name)
            .map_or(0.0, |&(work, secs)| work / secs)
    }

    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn add_counter(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_default() += value;
    }

    /// An operation returned an error.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// An output did not match what it must equal.
    pub fn mismatch(&mut self, message: String) {
        self.mismatches.push(message);
    }

    pub fn clean(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    fn merge_outcomes(&mut self, other: &Record) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches.iter().cloned());
        self.errors.extend(other.errors.iter().cloned());
    }
}

/// SplitMix64 finalizer of `seed` and `lane`: the benchmark's own
/// input randomness, independent of the library's generators.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` draw for `(seed, lane)`.
pub fn unit(seed: u64, lane: u64) -> f64 {
    (mix(seed, lane) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every pipeline of one workload, set up.
struct System {
    repro: repro::Repro,
    stream: stream::Stream,
    sched: sched::Sched,
    step: step::Step,
}

impl System {
    fn setup(env: &Env, sizes: &Sizes, tr: &mut Tracer) -> Result<System, String> {
        let root = tr.begin("setup", SpanId::NONE, 0);
        let system = System {
            repro: repro::Repro::setup(env, sizes.repro_jobs, tr, root)?,
            stream: stream::Stream::setup(env, sizes.stream_jobs, tr, root)?,
            sched: sched::Sched::setup(env, sizes.sched_jobs, tr, root)?,
            step: step::Step::setup(env, sizes.pricing_jobs, tr, root)?,
        };
        tr.end(root);
        Ok(system)
    }

    /// Digest of every generated input.
    #[cfg(test)]
    fn input_digest(&self) -> u64 {
        let text = format!(
            "{:?}{:?}{:?}{:?}",
            self.repro.populations(),
            self.stream.inputs(),
            self.sched.jobs(),
            self.step.population()
        );
        fnv1a(text.as_bytes())
    }

    /// One run of `op`. `input` picks which of the operation's inputs
    /// it runs on, where it has several, and is its root span's id.
    fn run(&mut self, op: Op, tr: &mut Tracer, input: u64, rec: &mut Record) {
        let root = tr.begin(&format!("op.{op:?}"), SpanId::NONE, input);
        match op {
            Op::Repro => self.repro.op(input, tr, root, rec),
            Op::Ingest => self.stream.ingest_op(tr, root, rec),
            Op::Query => self.stream.query_op(tr, root, rec),
            Op::Fifo => self
                .sched
                .op(pai_sched::PolicyKind::FifoFirstFit, tr, root, rec),
            Op::Qssf => self.sched.op(pai_sched::PolicyKind::Qssf, tr, root, rec),
            Op::Pricing => self.step.pricing_op(tr, root, rec),
            Op::Zoo => self.step.zoo_op(tr, root, rec),
        }
        tr.end(root);
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: pai_repro::SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Worker threads: `PAI_THREADS` (default 1: one caller on one core is
/// the steadiest measurement on a shared host), capped at the CPU
/// count.
fn threads(nproc: usize) -> Threads {
    let asked = std::env::var("PAI_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1);
    Threads::new(asked.clamp(1, nproc))
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Copy bandwidth of a buffer well past the last-level cache, in GB/s
/// of bytes copied: the ceiling a streaming column scan can approach.
fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    const REPEATS: usize = 8;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut rates = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&rates).unwrap_or(0.0)
}

/// One workload's measured result.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
    spans: Vec<tracer::Span>,
}

fn run_workload(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        seed: args.seed,
        threads: threads(nproc),
        model: PerfModel::paper_default(),
    };
    let mut lines = vec![
        format!(
            "workload {}  seed {}  seconds {}  trace {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host: nproc {nproc}, PAI_THREADS {}, threads used {}, {}",
            std::env::var("PAI_THREADS").unwrap_or_else(|_| "unset".to_string()),
            env.threads.get(),
            env!("PERFBENCH_RUSTC_VERSION")
        ),
        format!(
            "sizes: {:?}, main {:?}, weights {:?}",
            w.sizes, w.main, w.weights
        ),
    ];

    // Set-up, repeated; the last system is the one measured.
    let mut all_spans = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous system first so repeats do not stack up
        // memory.
        drop(system.take());
        let mut tr = Tracer::new(args.trace);
        let t = Instant::now();
        system = Some(System::setup(&env, &w.sizes, &mut tr)?);
        setup_s.push(t.elapsed().as_secs_f64());
        let spans = tr.take();
        setup_layers.push(tracer::totals_by_name(&spans));
        all_spans.extend(spans);
    }
    let mut system = system.ok_or("no set-up ran")?;

    // Warm-up: one untimed run of each operation, so lazily grown
    // buffers, caches and the first answers the output checks compare
    // against are in place before timing starts. Its outcomes count.
    let mut warm = Record::default();
    for op in OPS {
        system.run(op, &mut Tracer::new(false), 0, &mut warm);
    }

    // The closed loop: the next operation is the one furthest behind
    // its share of the time, so every operation is sampled throughout
    // the run. A traced run pairs each untraced run of an operation with
    // a traced one on the same input, so both see the same host
    // conditions; which of the two goes first alternates, so neither
    // always finds the input's data in cache.
    let mut off = Record::default();
    let mut on = Record::default();
    let mut main_off = Vec::new();
    let mut main_on = Vec::new();
    let mut layers_on: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counters_on: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut busy = [0.0f64; OPS.len()];
    let mut runs = [0u64; OPS.len()];
    let min_runs = if args.trace { 2 } else { 1 };
    let main_index = OPS
        .iter()
        .position(|&o| o == w.main)
        .expect("main is an op");
    let min_main = if args.trace {
        MIN_MAIN_RUNS + 1
    } else {
        MIN_MAIN_RUNS
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        // Once the time is up, only operations short of their fewest
        // runs go on.
        let over = start.elapsed() >= budget;
        let short: Vec<bool> = (0..OPS.len())
            .map(|i| runs[i] < min_runs || (i == main_index && runs[i] < min_main))
            .collect();
        if over && !short.contains(&true) {
            break;
        }
        let i = (0..OPS.len())
            .filter(|&i| !over || short[i])
            .min_by(|&a, &b| {
                (busy[a] / f64::from(w.weights[a])).total_cmp(&(busy[b] / f64::from(w.weights[b])))
            })
            .expect("an operation is short of runs");
        let traced = args.trace && runs[i] % 2 != (runs[i] / 2) % 2;
        let input = if args.trace { runs[i] / 2 } else { runs[i] };
        let mut tr = Tracer::new(traced);
        let rec = if traced { &mut on } else { &mut off };
        let t = Instant::now();
        system.run(OPS[i], &mut tr, input, rec);
        let secs = t.elapsed().as_secs_f64();
        busy[i] += secs;
        runs[i] += 1;
        let counters = std::mem::take(&mut rec.counters);
        if traced {
            let spans = tr.take();
            layers_on.push(tracer::totals_by_name(&spans));
            counters_on.push(counters);
            all_spans.extend(spans);
        }
        if i == main_index {
            if traced { &mut main_on } else { &mut main_off }.push(secs);
        }
    }
    let peak = peak_rss_mb().unwrap_or(0.0);
    lines.push(format!(
        "runs per op {:?}: {:?}; busy s {:?}",
        OPS,
        runs,
        busy.map(|b| (b * 100.0).round() / 100.0)
    ));

    // Checks that need the whole run, after the peak-memory reading.
    system.repro.check(&mut off);
    system.stream.check(&mut off);
    let mut result = Record::default();
    result.merge_outcomes(&warm);
    result.merge_outcomes(&off);
    result.merge_outcomes(&on);

    let samples = &off.samples;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        // Self time per layer: median over the traced runs of the
        // operation that calls it (set-up layers over set-up repeats).
        let layer_median = |runs: &[BTreeMap<String, f64>], span: &str| {
            let v: Vec<f64> = runs.iter().filter_map(|m| m.get(span).copied()).collect();
            stats::median(&v).unwrap_or(0.0)
        };
        let counter_median = |name: &str| {
            let v: Vec<f64> = counters_on
                .iter()
                .filter_map(|c| c.get(name).copied())
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        for (span, metric) in [
            ("repro.context", "repro.context_s"),
            ("sched.templates", "sched.templates_s"),
            ("sched.realize", "sched.realize_s"),
        ] {
            values.insert(metric.to_string(), layer_median(&setup_layers, span));
        }
        let op_layers = [
            ("trace.sample", "trace.sample_s"),
            ("trace.ingest", "trace.ingest_s"),
            ("core.validate", "core.validate_s"),
            ("trace.checkpoint", "trace.checkpoint_s"),
            ("sched.run_s.fifo-first-fit", "sched.run_s.fifo-first-fit"),
            ("sched.run_s.qssf", "sched.run_s.qssf"),
            ("sched.place", "sched.place_s"),
            ("pricing.additive", "pricing.additive_s"),
            ("dag.lower", "dag.lower_s"),
            ("dag.evaluate", "dag.evaluate_s"),
            ("graph.build", "graph.build_s"),
            ("profiler.extract", "profiler.extract_s"),
            ("dag.from_graph", "dag.from_graph_s"),
            ("dag.zoo_evaluate", "dag.zoo_evaluate_s"),
            ("sim.run", "sim.run_s"),
        ];
        for (span, metric) in op_layers {
            values.insert(metric.to_string(), layer_median(&layers_on, span));
        }
        for id in pai_repro::ALL_EXPERIMENTS {
            values.insert(
                format!("repro.{id}_s"),
                layer_median(&layers_on, &format!("repro.{id}")),
            );
        }
        for name in [
            "trace.checkpoint_bytes",
            "trace.ingested",
            "trace.quarantined",
            "core.whatif_rows",
            "sched.place_calls",
            "sched.place_refused",
            "sched.head_scan_len",
            "sched.max_queue_depth",
            "sched.events",
            "dag.tasks",
            "dag.messages",
            "dag.overlap_above_serial",
        ] {
            values.insert(name.to_string(), counter_median(name));
        }
        // Roofline row: bytes the fused what-if scan reads per second
        // against the host's copy bandwidth.
        let query_on = on.samples.get("query_s").cloned().unwrap_or_default();
        let query_s = stats::median(&query_on).unwrap_or(f64::INFINITY);
        values.insert("core.query_s".to_string(), query_s);
        let scan_gbps = values["core.whatif_rows"] * stream::SCAN_BYTES_PER_ROW / query_s / 1e9;
        let memcpy = memcpy_gbps();
        values.insert("core.whatif_scan_gbps".to_string(), scan_gbps);
        values.insert("host.memcpy_gbps".to_string(), memcpy);
        values.insert("ratio.scan_vs_memcpy".to_string(), scan_gbps / memcpy);
        // In-run baselines, each measured in this run on this host.
        let characterize_s = system.stream.characterize_s().unwrap_or_else(|e| {
            result.fail(format!("characterize baseline: {e}"));
            f64::NAN
        });
        values.insert("core.characterize_s".to_string(), characterize_s);
        values.insert(
            "ratio.query_vs_characterize".to_string(),
            characterize_s
                / stats::median(samples.get("query_s").map_or(&[][..], |v| v))
                    .unwrap_or(f64::INFINITY),
        );
        values.insert(
            "ratio.checkpoint_share_pct".to_string(),
            100.0 * values["trace.checkpoint_s"]
                / (values["trace.sample_s"]
                    + values["core.validate_s"]
                    + values["trace.ingest_s"]
                    + values["trace.checkpoint_s"]),
        );
        values.insert(
            "ratio.dag_vs_additive".to_string(),
            off.throughput("additive_jobs_per_s") / off.throughput("dag_jobs_per_s"),
        );
        values.insert(
            "ratio.fifo_vs_qssf".to_string(),
            off.throughput("fifo_jobs_per_s") / off.throughput("qssf_jobs_per_s"),
        );
        values.insert(
            "ratio.place_refused_share".to_string(),
            values["sched.place_refused"] / values["sched.place_calls"].max(1.0),
        );
        let off_s = stats::mean(&main_off).unwrap_or(0.0);
        let on_s = stats::mean(&main_on).unwrap_or(0.0);
        values.insert("bench.main_untraced_s".to_string(), off_s);
        values.insert("bench.main_traced_s".to_string(), on_s);
        values.insert(
            "bench.trace_overhead_pct".to_string(),
            100.0 * (on_s - off_s) / off_s,
        );
        values.insert("host.nproc".to_string(), nproc as f64);
        values.insert("host.threads".to_string(), env.threads.get() as f64);
        for (name, unit) in per_layer_metrics() {
            let v = values.get(&name).copied().unwrap_or(f64::NAN);
            metrics.push((name, v, unit));
        }
    } else {
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => stats::median(&setup_s).unwrap_or(0.0),
                "peak_rss_mb" => peak,
                // Each context run weighs the same, however many runs
                // it got.
                "wall_s" if w.main == Op::Repro => {
                    let per_context: Vec<f64> = (0..repro::CONTEXTS)
                        .filter_map(|k| samples.get(&repro::context_series(k)))
                        .filter_map(|v| stats::mean(v))
                        .collect();
                    stats::mean(&per_context).unwrap_or(0.0)
                }
                "wall_s" => stats::mean(&main_off).unwrap_or(0.0),
                "query_p50_ms" | "query_p99_ms" => samples
                    .get(name)
                    .and_then(|v| stats::interquartile_mean(v))
                    .unwrap_or(0.0),
                other => off.throughput(other),
            }
        };
        for (name, unit) in END_TO_END {
            metrics.push((name.to_string(), value(name), unit));
        }
        lines.push(format!("setup_s: {}", stats::describe(&setup_s)));
        lines.push(format!(
            "wall_s (main op {:?}): {}",
            w.main,
            stats::describe(&main_off)
        ));
        for (name, series) in samples {
            lines.push(format!("{name}: {}", stats::describe(series)));
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            result.mismatch(format!("metric {name} is not finite"));
        }
    }
    for m in &result.mismatches {
        lines.push(format!("MISMATCH: {m}"));
    }
    for e in &result.errors {
        lines.push(format!("ERROR: {e}"));
    }
    for (name, value, unit) in &metrics {
        lines.push(format!("  {name} = {value} {unit}"));
    }
    Ok(Outcome {
        correct: result.clean(),
        attempted: result.attempted,
        failed: result.failed,
        metrics,
        lines,
        spans: all_spans,
    })
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs one workload in this process and prints its report.
fn run_one(w: &Workload, args: &Args) -> Result<(), String> {
    let name = w.name;
    let outcome = run_workload(w, args)?;
    for line in &outcome.lines {
        println!("{line}");
    }
    let json = result_json(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let stem = format!(
        "{OUT_DIR}/{name}-seed{}-trace{}",
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                format!("{stem}.txt"),
                outcome.lines.join("\n") + "\n" + &json + "\n",
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    format!("{stem}.spans.jsonl"),
                    tracer::to_json_lines(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {stem}.*: {e}");
    }
    println!("{json}");
    Ok(())
}

/// Runs every workload, each in its own process so peak memory is
/// per workload, then prints one aggregate line.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for Workload { name, .. } in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().unwrap_or("");
        let parsed: serde_json::Value =
            serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))?;
        correct &=
            out.status.success() && parsed.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += parsed
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += parsed.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        if let Some(serde_json::Value::Object(m)) = parsed.get("metrics") {
            for (metric, v) in m {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = v
                    .get("unit")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string();
                metrics.push((format!("{name}/{metric}"), value, unit));
            }
        }
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        match WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(w) => run_one(w, &args),
            None => Err(format!("unknown workload {}", args.workload)),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let sizes = Sizes {
            repro_jobs: 300,
            stream_jobs: 5_000,
            sched_jobs: 300,
            pricing_jobs: 300,
        };
        let digest = |seed: u64| {
            let env = Env {
                seed,
                threads: Threads::SERIAL,
                model: PerfModel::paper_default(),
            };
            System::setup(&env, &sizes, &mut Tracer::new(false))
                .expect("set-up succeeds")
                .input_digest()
        };
        assert_eq!(digest(pai_repro::SEED), digest(pai_repro::SEED));
        assert_ne!(digest(pai_repro::SEED), digest(pai_repro::SEED + 1));
    }

    /// `(name, unit)` of every entry in one `BENCHMARK.json` list.
    fn declared(doc: &serde_json::Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(|v| v.as_array())
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
    }
}
