//! The "regenerate the paper" path: every experiment id through
//! `pai_repro::run_experiment` on `Context`s built from the workload
//! seed.

use std::time::Instant;

use pai_repro::{run_experiment, Context, ALL_EXPERIMENTS, POPULATION, SEED};
use pai_trace::{Population, PopulationConfig};

use crate::tracer::{SpanId, Tracer};
use crate::{fnv1a, mix, Env, Record};

/// Headline claims the scorecard checks.
const SCORECARD_CLAIMS: usize = 17;

/// Contexts the operation rotates through. How long the experiments
/// take depends on the population: on 20k jobs one seed's run takes
/// up to 1.4x another's. Eight populations per benchmark run average
/// that out of the per-run figure.
pub const CONTEXTS: usize = 8;

pub struct Repro {
    /// The first is built from the workload seed itself, the others
    /// from seeds derived from it.
    contexts: Vec<Context>,
    seed: u64,
    /// Per context, the payload digest of every experiment from its
    /// first run, in `ALL_EXPERIMENTS` order.
    digests: Vec<Option<Vec<u64>>>,
    /// PASS verdicts of the scorecard on the first context.
    scorecard_passes: Option<usize>,
}

impl Repro {
    pub fn setup(env: &Env, jobs: usize, tr: &mut Tracer, parent: SpanId) -> Result<Repro, String> {
        let span = tr.begin("repro.context", parent, 0);
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let contexts = (0..CONTEXTS as u64)
            .map(|k| {
                let seed = if k == 0 { env.seed } else { mix(env.seed, k) };
                let population = Population::builder(config.clone())
                    .seed(seed)
                    .threads(env.threads)
                    .build()
                    .map_err(|e| e.to_string())?;
                Ok(Context {
                    config: config.clone(),
                    population,
                    model: env.model,
                    threads: env.threads,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        tr.end(span);
        Ok(Repro {
            contexts,
            seed: env.seed,
            digests: vec![None; CONTEXTS],
            scorecard_passes: None,
        })
    }

    #[cfg(test)]
    pub fn populations(&self) -> Vec<&Population> {
        self.contexts.iter().map(|c| &c.population).collect()
    }

    /// Every experiment on context `input % CONTEXTS`.
    pub fn op(&mut self, input: u64, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let k = (input % CONTEXTS as u64) as usize;
        let ctx = &self.contexts[k];
        let start = Instant::now();
        let mut digests = Vec::with_capacity(ALL_EXPERIMENTS.len());
        for (i, id) in ALL_EXPERIMENTS.iter().enumerate() {
            let span = tr.begin(&format!("repro.{id}"), parent, i as u64);
            let result = run_experiment(id, ctx);
            tr.end(span);
            rec.attempted += 1;
            match result {
                Ok(r) => {
                    digests.push(fnv1a(r.json.to_string().as_bytes()));
                    if *id == "scorecard" && k == 0 {
                        self.scorecard_passes = Some(count_passes(&r.json));
                    }
                }
                Err(e) => {
                    rec.fail(format!("experiment {id}: {e}"));
                    digests.push(0);
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        rec.sample("repro_s", secs);
        rec.sample(&context_series(k), secs);
        match &self.digests[k] {
            None => self.digests[k] = Some(digests),
            Some(first) => {
                for ((id, a), b) in ALL_EXPERIMENTS.iter().zip(first).zip(&digests) {
                    if a != b {
                        rec.mismatch(format!(
                            "experiment {id}: payload differs between runs on context {k}"
                        ));
                    }
                }
            }
        }
    }

    pub fn check(&self, rec: &mut Record) {
        // The scorecard's tolerances are calibrated for the paper's
        // population at the default seed.
        if self.seed != SEED || self.contexts[0].population.len() != POPULATION {
            return;
        }
        match self.scorecard_passes {
            Some(SCORECARD_CLAIMS) => {}
            other => rec.mismatch(format!(
                "scorecard: {other:?} of {SCORECARD_CLAIMS} claims PASS on the default seed"
            )),
        }
    }
}

/// Name of the sample series of runs on context `k`.
pub fn context_series(k: usize) -> String {
    format!("repro_s.{k}")
}

/// Claims with a PASS verdict in the scorecard payload.
fn count_passes(json: &serde_json::Value) -> usize {
    json.as_array().map_or(0, |claims| {
        claims
            .iter()
            .filter(|c| c.get("verdict").and_then(|v| v.as_str()) == Some("PASS"))
            .count()
    })
}
