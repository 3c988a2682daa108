//! Step pricing: a seeded job population priced on the DAG backend
//! under the three overlap strategies (with the additive closed form
//! as the in-run baseline), then the 18 zoo graphs lowered from their
//! op DAGs, evaluated under the same strategies and stepped through
//! the simulator.

use std::time::Instant;

use pai_collectives::CommPlan;
use pai_core::{ComponentTimes, Jobs, PerfModel};
use pai_dag::{evaluate, lower, NetworkPath, OverlapStrategy, StepTimeBackend, StepTimeEngine};
use pai_graph::passes::{apply_mixed_precision, fuse_elementwise};
use pai_graph::zoo::{self, inference, CaseStudyArch, ModelSpec};
use pai_graph::Graph;
use pai_par::Threads;
use pai_profiler::extract_features;
use pai_profiler::validate::plan_for;
use pai_sim::{SimConfig, StepSimulator};
use pai_trace::{Population, PopulationConfig};

use crate::tracer::{SpanId, Tracer};
use crate::{fnv1a, Env, Record};

/// Relative tolerance of the serial-DAG ≡ additive and WFBP ≤ serial
/// checks (summation order differs between the two models).
const REL_TOL: f64 = 1e-9;
/// Jobs per traced lowering/evaluation chunk: small enough that the
/// chunk's lowered steps stay in cache between the two calls.
const TRACE_CHUNK: usize = 64;

fn strategies() -> [OverlapStrategy; 3] {
    [
        OverlapStrategy::Serial,
        OverlapStrategy::Wfbp,
        OverlapStrategy::fused_default(),
    ]
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// The 18 zoo cases: each model in training, inference and
/// XLA + mixed-precision form.
struct ZooCase {
    spec_index: usize,
    graph: Graph,
    /// Inference replicas synchronize nothing.
    trains: bool,
}

pub struct Step {
    population: Population,
    model: PerfModel,
    threads: Threads,
    /// Digests of the first pricing and zoo runs.
    first_pricing: Option<u64>,
    first_zoo: Option<u64>,
}

impl Step {
    pub fn setup(env: &Env, jobs: usize, tr: &mut Tracer, parent: SpanId) -> Result<Step, String> {
        let span = tr.begin("trace.population", parent, 0);
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let population = Population::builder(config)
            .seed(env.seed)
            .threads(env.threads)
            .build()
            .map_err(|e| e.to_string())?;
        tr.end(span);
        Ok(Step {
            population,
            model: env.model,
            threads: env.threads,
            first_pricing: None,
            first_zoo: None,
        })
    }

    #[cfg(test)]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Prices the population on one DAG strategy. Traced, lowering and
    /// evaluation are timed apart, one span pair per job chunk.
    fn price(
        &self,
        strategy: OverlapStrategy,
        tr: &mut Tracer,
        parent: SpanId,
        rec: &mut Record,
    ) -> Vec<ComponentTimes> {
        let engine = StepTimeEngine::new(self.model, StepTimeBackend::Dag(strategy));
        if !tr.enabled() {
            return engine.component_times_all(&self.population, self.threads);
        }
        let config = self.model.config();
        let n = self.population.len();
        let mut out = Vec::with_capacity(n);
        let mut steps = Vec::with_capacity(TRACE_CHUNK);
        for (chunk, lo) in (0..n).step_by(TRACE_CHUNK).enumerate() {
            let hi = (lo + TRACE_CHUNK).min(n);
            let span = tr.begin("dag.lower", parent, chunk as u64);
            steps.clear();
            steps.extend((lo..hi).map(|i| {
                let job = self.population.get(i);
                (
                    lower::from_features(&job, config, pai_dag::DEFAULT_LAYERS),
                    NetworkPath::for_arch(config, job.arch()),
                )
            }));
            tr.end(span);
            let span = tr.begin("dag.evaluate", parent, chunk as u64);
            out.extend(
                steps
                    .iter()
                    .map(|(step, path)| evaluate(step, path, strategy).component_times()),
            );
            tr.end(span);
            rec.add_counter(
                "dag.tasks",
                steps.iter().map(|(s, _)| s.tasks.len() as f64).sum(),
            );
            rec.add_counter(
                "dag.messages",
                steps.iter().map(|(s, _)| s.messages.len() as f64).sum(),
            );
        }
        out
    }

    /// Prices the whole population: the additive baseline, then every
    /// DAG strategy.
    pub fn pricing_op(&mut self, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let n = self.population.len();
        let span = tr.begin("pricing.additive", parent, 0);
        let t = Instant::now();
        let additive = StepTimeEngine::new(self.model, StepTimeBackend::Additive)
            .component_times_all(&self.population, self.threads);
        rec.rate("additive_jobs_per_s", n as f64, t.elapsed().as_secs_f64());
        tr.end(span);

        let start = Instant::now();
        let priced: Vec<Vec<ComponentTimes>> = strategies()
            .into_iter()
            .map(|s| {
                let span = tr.begin(&format!("dag.price.{}", s.label()), parent, 0);
                let out = self.price(s, tr, span, rec);
                tr.end(span);
                out
            })
            .collect();
        let secs = start.elapsed().as_secs_f64();
        rec.attempted += (priced.len() * n) as u64;
        rec.rate("dag_jobs_per_s", (priced.len() * n) as f64, secs);

        let digest = check_prices(&self.population, &self.model, &additive, &priced, rec);
        Step::same_as_first(&mut self.first_pricing, digest, "population prices", rec);
    }

    fn same_as_first(first: &mut Option<u64>, digest: u64, what: &str, rec: &mut Record) {
        match first {
            None => *first = Some(digest),
            Some(f) if *f != digest => rec.mismatch(format!("step: {what} differ between runs")),
            Some(_) => {}
        }
    }

    /// The zoo phase: build, extract, lower, evaluate and simulate the
    /// 18 graphs.
    pub fn zoo_op(&mut self, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let start = Instant::now();
        let span = tr.begin("graph.build", parent, 0);
        let specs = zoo::all();
        let mut cases = Vec::with_capacity(3 * specs.len());
        for (spec_index, spec) in specs.iter().enumerate() {
            let serve = inference::inference_variant(spec);
            let (optimized, _) = apply_mixed_precision(&fuse_elementwise(spec.graph()));
            cases.push(ZooCase {
                spec_index,
                graph: spec.graph().clone(),
                trains: true,
            });
            cases.push(ZooCase {
                spec_index,
                graph: serve.graph().clone(),
                trains: false,
            });
            cases.push(ZooCase {
                spec_index,
                graph: optimized,
                trains: true,
            });
        }
        tr.end(span);

        let span = tr.begin("profiler.extract", parent, 0);
        let features: Vec<_> = specs
            .iter()
            .map(|s| extract_features(s, cnodes_of(s)))
            .collect();
        tr.end(span);

        let mut prices = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let spec = &specs[case.spec_index];
            let cnodes = cnodes_of(spec);
            let span = tr.begin("dag.from_graph", parent, i as u64);
            let weight = if case.trains {
                features[case.spec_index].weight_bytes()
            } else {
                pai_hw::Bytes::ZERO
            };
            let job = lower::job_of_graph(
                &case.graph,
                features[case.spec_index].arch(),
                cnodes,
                spec.batch_size(),
                weight,
            );
            let step = lower::from_graph(&case.graph, &job, self.model.config());
            let path = NetworkPath::for_arch(self.model.config(), job.arch());
            tr.end(span);
            let span = tr.begin("dag.zoo_evaluate", parent, i as u64);
            let totals: Vec<f64> = strategies()
                .iter()
                .map(|&s| evaluate(&step, &path, s).total.as_f64())
                .collect();
            tr.end(span);
            if totals[1] > totals[0] * (1.0 + REL_TOL) || totals[2] > totals[0] * (1.0 + REL_TOL) {
                rec.mismatch(format!(
                    "zoo case {i}: an overlapped strategy prices above serial"
                ));
            }
            let serial_vs_additive = rel_diff(totals[0], self.model.total_time(&job).as_f64());
            if serial_vs_additive > REL_TOL {
                rec.mismatch(format!(
                    "zoo case {i}: serial DAG differs from additive by {serial_vs_additive:e}"
                ));
            }
            prices.extend(totals);

            let span = tr.begin("sim.run", parent, i as u64);
            let plan = if case.trains {
                plan_for(spec, cnodes)
            } else {
                CommPlan::new()
            };
            let contention = match spec.arch() {
                CaseStudyArch::AllReduceLocal | CaseStudyArch::Pearl => cnodes,
                _ => 1,
            };
            let sim = StepSimulator::new(
                SimConfig::testbed().with_efficiency(*spec.measured_efficiency()),
            );
            let measured = sim.run(&case.graph, &plan, contention);
            tr.end(span);
            rec.attempted += 1;
            match measured {
                Ok(m) => prices.push(m.total.as_f64()),
                Err(e) => rec.fail(format!("zoo case {i}: simulator: {e}")),
            }
        }
        rec.rate(
            "zoo_graphs_per_s",
            cases.len() as f64,
            start.elapsed().as_secs_f64(),
        );
        Step::same_as_first(&mut self.first_zoo, digest_f64(&prices), "zoo prices", rec);
    }
}

/// The zoo's cNode convention: 1 for the single-GPU case study, 8
/// otherwise.
fn cnodes_of(spec: &ModelSpec) -> usize {
    if spec.arch() == CaseStudyArch::OneWorkerOneGpu {
        1
    } else {
        8
    }
}

/// Checks every price of the population. Serial DAG equals additive
/// within [`REL_TOL`]. An overlapped strategy never prices below the
/// compute stream it overlaps and never above serial plus the α every
/// message pays (serial ships one bulk transfer charged no α):
/// `serial + layers * alpha`. Overlap does
/// not always win: on latency-bound jobs the extra messages cost more
/// than the overlap hides, and those jobs are counted
/// (`dag.overlap_above_serial`), not failed. Returns a digest of
/// every price.
fn check_prices(
    population: &Population,
    model: &PerfModel,
    additive: &[ComponentTimes],
    priced: &[Vec<ComponentTimes>],
    rec: &mut Record,
) -> u64 {
    let serial = &priced[0];
    let mut bad_serial = 0usize;
    let mut out_of_bounds = 0usize;
    let mut above_serial = 0usize;
    let messages = pai_dag::DEFAULT_LAYERS as f64;
    for (i, (a, s)) in additive.iter().zip(serial).enumerate() {
        if rel_diff(a.total.as_f64(), s.total.as_f64()) > REL_TOL {
            bad_serial += 1;
        }
        let job = population.get(i);
        let alpha = NetworkPath::for_arch(model.config(), job.arch())
            .latency_per_message()
            .as_f64();
        let stream = (s.data_io + s.computation()).as_f64();
        let ceiling = (s.total.as_f64() + messages * alpha) * (1.0 + REL_TOL);
        for p in &priced[1..] {
            let t = p[i].total.as_f64();
            if t > ceiling || t < stream * (1.0 - REL_TOL) {
                out_of_bounds += 1;
            }
            if t > s.total.as_f64() * (1.0 + REL_TOL) {
                above_serial += 1;
            }
        }
    }
    if bad_serial > 0 {
        rec.mismatch(format!(
            "step: serial DAG differs from additive on {bad_serial} jobs"
        ));
    }
    if out_of_bounds > 0 {
        rec.mismatch(format!(
            "step: {out_of_bounds} overlapped prices outside [stream, serial + messages * alpha]"
        ));
    }
    rec.counter("dag.overlap_above_serial", above_serial as f64);
    let totals: Vec<f64> = priced.iter().flatten().map(|c| c.total.as_f64()).collect();
    digest_f64(&totals)
}

fn digest_f64(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}
