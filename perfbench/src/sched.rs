//! The saturated schedule replay: a seeded job stream arriving four
//! times faster than the testbed serves it, gangs capped at 64 GPUs,
//! replayed under FIFO first-fit or QSSF.

use std::sync::Mutex;
use std::time::Instant;

use pai_hw::ClusterSpec;
use pai_sched::{
    class_priors_from_jobs, order_for_kind, realize_stream, run_kind, run_ordered,
    templates_from_population, ArrivalConfig, ClusterMetrics, EventKind, EventRecord, Policy,
    PolicyKind, SchedConfig, SchedJob, SyncClass,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

use crate::tracer::{CallTimer, SpanId, Tracer};
use crate::{Env, Record};

/// Offered load of the replay: four times what the testbed drains, so
/// the queue holds most of the stream. At this load the summed queue
/// length varies about ±5% across seeds; at 0.25 with uncapped gangs
/// it varied 2.5x, set by how many 512-GPU gangs a seed draws.
const OFFERED_LOAD: f64 = 4.0;
/// Widest gang admitted, in GPUs (the `repro schedule` cap).
const WIDTH_CAP: usize = 64;
/// Log-uniform range of training steps per job.
const STEPS_RANGE: (usize, usize) = (50, 500);
/// Wraps a placement policy, timing each `place` call and counting
/// refusals. It forwards every call unchanged.
struct TimedPolicy {
    inner: &'static dyn Policy,
    calls: Mutex<(CallTimer, u64)>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&self, cnodes: usize, sync: SyncClass, free: &[usize]) -> Option<Vec<(usize, usize)>> {
        let mut calls = self.calls.lock().expect("no place call panics while timed");
        let out = calls.0.time(|| self.inner.place(cnodes, sync, free));
        if out.is_none() {
            calls.1 += 1;
        }
        out
    }
}

/// Queue statistics rebuilt from an event log: the summed queue length
/// at every `Start` (a lower bound on head-selection comparisons) and
/// the deepest the queue got.
pub fn queue_stats(events: &[EventRecord]) -> (u64, u64) {
    let (mut len, mut scan, mut max) = (0u64, 0u64, 0u64);
    for e in events {
        match e.kind {
            EventKind::Arrive | EventKind::Requeue => {
                len += 1;
                max = max.max(len);
            }
            EventKind::Start => {
                scan += len;
                len = len.saturating_sub(1);
            }
            EventKind::Finish | EventKind::Crash => {}
        }
    }
    (scan, max)
}

pub struct Sched {
    cluster: ClusterSpec,
    stream: Vec<SchedJob>,
    seed: u64,
    /// Jobs completed and cluster metrics of the first replay, per
    /// policy (FIFO, QSSF).
    first: [Option<(usize, ClusterMetrics)>; 2],
}

impl Sched {
    pub fn setup(env: &Env, jobs: usize, tr: &mut Tracer, parent: SpanId) -> Result<Sched, String> {
        let cluster = ClusterSpec::testbed(0.7);
        let span = tr.begin("trace.population", parent, 0);
        let config = PopulationConfig::paper_scale(jobs).map_err(|e| e.to_string())?;
        let population = Population::builder(config)
            .seed(env.seed)
            .threads(env.threads)
            .build()
            .map_err(|e| e.to_string())?;
        tr.end(span);
        let span = tr.begin("sched.templates", parent, 0);
        let (templates, _dropped) = templates_from_population(&env.model, &population, WIDTH_CAP);
        tr.end(span);
        let span = tr.begin("sched.realize", parent, 0);
        let arrival =
            ArrivalConfig::for_offered_load(&templates, &cluster, OFFERED_LOAD, STEPS_RANGE)
                .map_err(|e| e.to_string())?;
        let stream = realize_stream(
            &templates,
            &arrival,
            &FailureSampler::paper_calibrated(),
            env.seed,
        )
        .map_err(|e| e.to_string())?;
        tr.end(span);
        Ok(Sched {
            cluster,
            stream,
            seed: env.seed,
            first: [None, None],
        })
    }

    #[cfg(test)]
    pub fn jobs(&self) -> &[SchedJob] {
        &self.stream
    }

    /// One replay of the stream under `kind`.
    pub fn op(&mut self, kind: PolicyKind, tr: &mut Tracer, parent: SpanId, rec: &mut Record) {
        let name = kind.name();
        let span = tr.begin(&format!("sched.run_s.{name}"), parent, 0);
        let start = Instant::now();
        let outcome = if tr.enabled() {
            // Traced: the same replay through the timing wrapper, with
            // the event log on.
            let timed = TimedPolicy {
                inner: kind.policy(),
                calls: Mutex::new((CallTimer::default(), 0)),
            };
            let order = order_for_kind(
                kind,
                self.seed,
                class_priors_from_jobs(&self.stream, &self.cluster),
            );
            let config = SchedConfig {
                log_events: true,
                ..SchedConfig::default()
            };
            let out = run_ordered(&self.cluster, &self.stream, &timed, &order, &config);
            let (calls, refused) = timed.calls.into_inner().expect("no place call panicked");
            tr.aggregate("sched.place", span, 0, &calls);
            if let Ok(o) = &out {
                let (scan, depth) = queue_stats(&o.events);
                rec.counter("sched.place_calls", calls.count as f64);
                rec.counter("sched.place_refused", refused as f64);
                rec.counter("sched.head_scan_len", scan as f64);
                rec.counter("sched.events", o.events.len() as f64);
                rec.counter("sched.max_queue_depth", depth as f64);
            }
            out
        } else {
            let config = SchedConfig {
                log_events: false,
                ..SchedConfig::default()
            };
            run_kind(&self.cluster, &self.stream, kind, self.seed, &config)
        };
        let secs = start.elapsed().as_secs_f64();
        tr.end(span);
        rec.attempted += 1;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => return rec.fail(format!("sched {name}: {e}")),
        };
        let done = outcome.jobs.len();
        if done != self.stream.len() {
            rec.mismatch(format!(
                "sched {name}: {done} of {} jobs completed",
                self.stream.len()
            ));
        }
        rec.rate(
            &format!("{}_jobs_per_s", metric_prefix(kind)),
            done as f64,
            secs,
        );
        let slot = usize::from(kind == PolicyKind::Qssf);
        match &self.first[slot] {
            None => self.first[slot] = Some((done, outcome.cluster)),
            Some(first) if *first != (done, outcome.cluster) => rec.mismatch(format!(
                "sched {name}: jobs completed or cluster metrics differ between replays"
            )),
            Some(_) => {}
        }
    }
}

/// End-to-end metric prefix of a replay policy.
pub fn metric_prefix(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Qssf => "qssf",
        _ => "fifo",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, job: usize) -> EventRecord {
        EventRecord {
            seq: 0,
            time_s: 0.0,
            kind,
            job,
        }
    }

    #[test]
    fn queue_stats_follow_the_log() {
        use EventKind::*;
        let log = [
            ev(Arrive, 0),
            ev(Arrive, 1),
            ev(Arrive, 2),
            ev(Start, 0),
            ev(Crash, 0),
            ev(Requeue, 0),
            ev(Start, 1),
            ev(Finish, 1),
        ];
        // Starts see queues of 3 and then 3 again (2 left + 1 requeued).
        assert_eq!(queue_stats(&log), (6, 3));
    }
}
