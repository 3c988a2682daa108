//! The streaming service with writes beside reads: a seeded job stream
//! with ~1% of records corrupted by the benchmark, ingested untrusted
//! under the quarantine policy with a checkpoint every 64 chunks, and
//! what-if queries at seeded Ethernet bandwidths against the index the
//! ingest built.

use std::time::Instant;

use pai_core::{
    characterize, FeatureViolation, HeadlineStats, PerfModel, RawFeatures, WhatIfIndex,
    WhatIfSummary, WorkloadFeatures,
};
use pai_par::Threads;
use pai_trace::population::JOB_CHUNK;
use pai_trace::{IngestPolicy, JobStream, PopulationConfig, StreamSession};

use crate::tracer::{SpanId, Tracer};
use crate::{unit, Env, Record};

/// One record in this many is corrupted (~1%).
const CORRUPT_ONE_IN: u64 = 100;
/// Checkpoint cadence in chunks of valid jobs.
const CHECKPOINT_EVERY_CHUNKS: usize = 64;
/// Bytes a what-if query scans per indexed row (three `f64` columns).
pub const SCAN_BYTES_PER_ROW: f64 = 24.0;
/// Queries per query loop, one per seeded bandwidth; 1000 leaves ten
/// beyond the loop's 99th percentile.
const QUERIES: usize = 1000;
/// Ethernet bandwidth range the queries draw from, in Gbit/s.
const QUERY_GBPS: (f64, f64) = (10.0, 400.0);

/// A deliberately broken field; each one trips a different
/// [`FeatureViolation`] reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    NanFlops,
    NegativeInput,
    ZeroCnodes,
    ZeroBatch,
    ClassMismatch,
}

impl Corruption {
    const ALL: [Corruption; 5] = [
        Corruption::NanFlops,
        Corruption::NegativeInput,
        Corruption::ZeroCnodes,
        Corruption::ZeroBatch,
        Corruption::ClassMismatch,
    ];

    fn apply(self, raw: &mut RawFeatures) {
        match self {
            Corruption::NanFlops => raw.flops = f64::NAN,
            Corruption::NegativeInput => raw.input_bytes = -1.0,
            Corruption::ZeroCnodes => raw.cnodes = 0,
            Corruption::ZeroBatch => raw.batch_size = 0,
            Corruption::ClassMismatch => {
                raw.arch = if raw.cnodes == 1 {
                    pai_core::Architecture::PsWorker
                } else {
                    pai_core::Architecture::OneWorkerOneGpu
                };
            }
        }
    }

    /// The quarantine counter slot this corruption lands in.
    fn reason(self) -> usize {
        let violation = match self {
            Corruption::NanFlops => FeatureViolation::NonFinite { field: "flops" },
            Corruption::NegativeInput => FeatureViolation::Negative {
                field: "input_bytes",
            },
            Corruption::ZeroCnodes => FeatureViolation::ZeroCnodes,
            Corruption::ZeroBatch => FeatureViolation::ZeroBatch,
            Corruption::ClassMismatch => FeatureViolation::ClassMismatch {
                arch: pai_core::Architecture::PsWorker,
                cnodes: 1,
            },
        };
        violation.index()
    }
}

/// The seeded inputs of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInputs {
    pub jobs: usize,
    /// `(record index, corruption)`, ascending by index.
    pub corrupt: Vec<(usize, Corruption)>,
    /// Ethernet bandwidth of each query, in Gbit/s.
    pub query_gbps: Vec<f64>,
}

impl StreamInputs {
    pub fn generate(seed: u64, jobs: usize) -> StreamInputs {
        let corrupt = (0..jobs)
            .filter_map(|i| {
                let h = crate::mix(seed ^ 0xC0DE, i as u64);
                h.is_multiple_of(CORRUPT_ONE_IN)
                    .then(|| (i, Corruption::ALL[(h / CORRUPT_ONE_IN) as usize % 5]))
            })
            .collect();
        let (lo, hi) = QUERY_GBPS;
        let query_gbps = (0..QUERIES)
            .map(|i| lo + (hi - lo) * unit(seed ^ 0x9E7, i as u64))
            .collect();
        StreamInputs {
            jobs,
            corrupt,
            query_gbps,
        }
    }

    /// Injected corruptions per quarantine reason.
    fn injected(&self) -> [u64; FeatureViolation::REASONS] {
        let mut out = [0u64; FeatureViolation::REASONS];
        for (_, c) in &self.corrupt {
            out[c.reason()] += 1;
        }
        out
    }
}

/// Feeds raw records from stream position `from` onward, applying the
/// planned corruptions, one chunk-sized batch at a time.
struct RawSource<'a> {
    stream: JobStream<'a>,
    corrupt: &'a [(usize, Corruption)],
    next_corrupt: usize,
}

impl<'a> RawSource<'a> {
    fn open(
        config: &'a PopulationConfig,
        seed: u64,
        inputs: &'a StreamInputs,
        from: usize,
    ) -> Result<RawSource<'a>, String> {
        let grid = from - from % JOB_CHUNK;
        let mut stream = JobStream::resume(config, seed, grid).map_err(|e| e.to_string())?;
        for _ in grid..from {
            stream.next();
        }
        Ok(RawSource {
            stream,
            corrupt: &inputs.corrupt,
            next_corrupt: inputs.corrupt.partition_point(|&(i, _)| i < from),
        })
    }

    /// Refills `buf` with up to one chunk of records; false at the end.
    fn fill(&mut self, buf: &mut Vec<RawFeatures>) -> bool {
        buf.clear();
        for _ in 0..JOB_CHUNK {
            let position = self.stream.position();
            let Some(job) = self.stream.next() else { break };
            let mut raw = RawFeatures::from(&job);
            if let Some(&(i, c)) = self.corrupt.get(self.next_corrupt) {
                if i == position {
                    c.apply(&mut raw);
                    self.next_corrupt += 1;
                }
            }
            buf.push(raw);
        }
        !buf.is_empty()
    }
}

/// What the first ingest left behind, for the checks.
struct StreamOutput {
    stats: HeadlineStats,
    quarantined: [u64; FeatureViolation::REASONS],
    /// The last checkpoint and the stream position it was taken at.
    checkpoint: Option<(Vec<u8>, usize)>,
}

pub struct Stream {
    config: PopulationConfig,
    seed: u64,
    model: PerfModel,
    threads: Threads,
    inputs: StreamInputs,
    first: Option<StreamOutput>,
    /// The what-if index of the latest ingest.
    index: Option<WhatIfIndex>,
    /// First answer to each query.
    answers: Vec<Option<WhatIfSummary>>,
}

impl Stream {
    pub fn setup(
        env: &Env,
        jobs: usize,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<Stream, String> {
        let span = tr.begin("stream.inputs", parent, 0);
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let inputs = StreamInputs::generate(env.seed, jobs);
        tr.end(span);
        Ok(Stream {
            config,
            seed: env.seed,
            model: env.model,
            threads: env.threads,
            answers: vec![None; inputs.query_gbps.len()],
            inputs,
            first: None,
            index: None,
        })
    }

    #[cfg(test)]
    pub fn inputs(&self) -> &StreamInputs {
        &self.inputs
    }

    /// Ingests the whole stream into `session`, from stream position
    /// `from`. Returns the last checkpoint taken and its position.
    fn ingest(
        &self,
        session: &mut StreamSession,
        from: usize,
        tr: &mut Tracer,
        parent: SpanId,
        rec: &mut Record,
    ) -> Result<Option<(Vec<u8>, usize)>, String> {
        let stride = (CHECKPOINT_EVERY_CHUNKS * JOB_CHUNK) as u64;
        let mut source = RawSource::open(&self.config, self.seed, &self.inputs, from)?;
        let mut raws = Vec::with_capacity(JOB_CHUNK);
        let mut checked: Vec<Result<WorkloadFeatures, FeatureViolation>> =
            Vec::with_capacity(JOB_CHUNK);
        let mut checkpoint = None;
        for chunk in 0u64.. {
            let span = tr.begin("trace.sample", parent, chunk);
            let more = source.fill(&mut raws);
            tr.end(span);
            if !more {
                break;
            }
            let span = tr.begin("core.validate", parent, chunk);
            checked.clear();
            checked.extend(raws.iter().map(RawFeatures::validate));
            tr.end(span);
            let span = tr.begin("trace.ingest", parent, chunk);
            for (raw, valid) in raws.iter().zip(&checked) {
                match valid {
                    Ok(job) => session.ingest(job),
                    // The invalid record goes through the untrusted
                    // entry point, which quarantines it.
                    Err(_) => match session.ingest_untrusted(raw) {
                        Ok(false) => {}
                        Ok(true) => rec.mismatch("a corrupted record was accepted".to_string()),
                        Err(e) => rec.fail(format!("quarantine ingest: {e}")),
                    },
                }
                if valid.is_ok() && session.jobs().is_multiple_of(stride) {
                    let ck = tr.begin("trace.checkpoint", span, chunk);
                    match session.checkpoint() {
                        Ok(bytes) => {
                            rec.counter("trace.checkpoint_bytes", bytes.len() as f64);
                            checkpoint = Some((bytes, session.position() as usize));
                        }
                        Err(e) => rec.fail(format!("checkpoint: {e}")),
                    }
                    tr.end(ck);
                }
            }
            tr.end(span);
        }
        Ok(checkpoint)
    }

    /// Ingests the whole corrupted stream into a fresh session and
    /// keeps its what-if index for the queries.
    pub fn ingest_op(&mut self, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let start = Instant::now();
        let mut session =
            StreamSession::with_whatif(self.model).with_policy(IngestPolicy::Quarantine);
        let checkpoint = match self.ingest(&mut session, 0, tr, parent, rec) {
            Ok(c) => c,
            Err(e) => return rec.fail(format!("stream: {e}")),
        };
        let ingest_s = start.elapsed().as_secs_f64();
        rec.attempted += self.inputs.jobs as u64;
        rec.rate("ingest_jobs_per_s", self.inputs.jobs as f64, ingest_s);
        rec.counter("trace.ingested", session.jobs() as f64);
        rec.counter("trace.quarantined", session.quarantined_total() as f64);
        let out = StreamOutput {
            stats: session.stats(),
            quarantined: session.quarantined(),
            checkpoint,
        };
        match &self.first {
            None => self.first = Some(out),
            Some(first) if first.stats != out.stats => {
                rec.mismatch("stream: stats differ between runs".to_string())
            }
            Some(_) => {}
        }
        self.index = session.into_whatif();
    }

    /// A closed loop of one query per seeded bandwidth, one at a time,
    /// against the index of the latest ingest. Records the loop's
    /// median and 99th-percentile latency.
    pub fn query_op(&mut self, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let Some(index) = &self.index else {
            return rec.fail("no what-if index to query".to_string());
        };
        rec.counter("core.whatif_rows", index.len() as f64);
        let answers = &mut self.answers;
        let mut latencies_ms = Vec::with_capacity(self.inputs.query_gbps.len());
        for (q, &gbps) in self.inputs.query_gbps.iter().enumerate() {
            let span = tr.begin("core.query", parent, q as u64);
            let t = Instant::now();
            let summary = index.summary_at(gbps);
            let secs = t.elapsed().as_secs_f64();
            tr.end(span);
            rec.attempted += 1;
            latencies_ms.push(secs * 1e3);
            rec.sample("query_s", secs);
            match &answers[q] {
                None => answers[q] = Some(summary),
                Some(first) if *first != summary => {
                    rec.mismatch(format!("stream: query {q} answered differently"))
                }
                Some(_) => {}
            }
        }
        for (name, q) in [("query_p50_ms", 0.5), ("query_p99_ms", 0.99)] {
            if let Some(v) = crate::stats::percentile(&latencies_ms, q) {
                rec.sample(name, v);
            }
        }
    }

    /// Seconds a serial `characterize` of the valid records takes: the
    /// base of the query-vs-characterize ratio.
    pub fn characterize_s(&self) -> Result<f64, String> {
        let valid = self.valid_jobs()?;
        let t = Instant::now();
        std::hint::black_box(characterize(&self.model, &valid, Threads::SERIAL));
        Ok(t.elapsed().as_secs_f64())
    }

    fn valid_jobs(&self) -> Result<Vec<WorkloadFeatures>, String> {
        let mut source = RawSource::open(&self.config, self.seed, &self.inputs, 0)?;
        let mut raws = Vec::with_capacity(JOB_CHUNK);
        let mut valid = Vec::with_capacity(self.inputs.jobs);
        while source.fill(&mut raws) {
            valid.extend(raws.iter().filter_map(|r| r.validate().ok()));
        }
        Ok(valid)
    }

    pub fn check(&self, rec: &mut Record) {
        let Some(first) = &self.first else { return };
        // Every injected record, and only those, is quarantined, each
        // under the reason its corruption trips.
        if first.quarantined != self.inputs.injected() {
            rec.mismatch(format!(
                "stream: quarantined {:?} != injected {:?}",
                first.quarantined,
                self.inputs.injected()
            ));
        }
        // Streamed statistics equal batch characterize over the valid
        // records (quarantine counters aside: batch sees no bad input).
        match self.valid_jobs() {
            Ok(valid) => {
                let mut batch = characterize(&self.model, &valid, self.threads);
                batch.quarantined = first.stats.quarantined;
                batch.quarantined_total = first.stats.quarantined_total;
                if batch != first.stats {
                    rec.mismatch(
                        "stream: streamed stats differ from batch characterize".to_string(),
                    );
                }
            }
            Err(e) => rec.fail(format!("stream check: {e}")),
        }
        // The last checkpoint resumes to the uninterrupted result.
        if let Some((bytes, position)) = &first.checkpoint {
            match StreamSession::resume(self.model, bytes) {
                Ok(mut session) => {
                    let mut scratch = Record::default();
                    let mut off = Tracer::new(false);
                    match self.ingest(
                        &mut session,
                        *position,
                        &mut off,
                        SpanId::NONE,
                        &mut scratch,
                    ) {
                        Ok(_) if scratch.clean() && session.stats() == first.stats => {}
                        Ok(_) => rec
                            .mismatch("stream: resumed run differs from uninterrupted".to_string()),
                        Err(e) => rec.fail(format!("stream resume: {e}")),
                    }
                }
                Err(e) => rec.fail(format!("stream resume: {e}")),
            }
        } else if self.inputs.jobs >= CHECKPOINT_EVERY_CHUNKS * JOB_CHUNK * 2 {
            rec.mismatch("stream: no checkpoint was taken".to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corruption_is_quarantined_under_its_reason() {
        let config = PopulationConfig::paper_scale(64).expect("valid scale");
        for job in JobStream::new(&config, 1).expect("valid config").take(64) {
            for c in Corruption::ALL {
                let mut raw = RawFeatures::from(&job);
                c.apply(&mut raw);
                let violation = raw
                    .validate()
                    .expect_err("corrupted record must be rejected");
                assert_eq!(violation.index(), c.reason(), "{c:?}");
            }
        }
    }

    #[test]
    fn inputs_are_seeded() {
        let a = StreamInputs::generate(11, 50_000);
        assert_eq!(a, StreamInputs::generate(11, 50_000));
        assert_ne!(a, StreamInputs::generate(12, 50_000));
        // Roughly one record in a hundred, every reason represented.
        assert!((350..650).contains(&a.corrupt.len()), "{}", a.corrupt.len());
        assert!(a.injected().iter().all(|&n| n > 0));
    }
}
