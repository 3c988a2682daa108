//! The deterministic discrete-event gang-scheduling engine.
//!
//! Virtual time only: the clock is an `f64` of simulated seconds that
//! advances from event to event — no wall-clock or entropy source
//! anywhere (the xtask `wall-clock` lint enforces this). Between two
//! consecutive events the running set is fixed, so every running
//! job's step time is constant and progress is a fluid
//! `elapsed / step_time` steps (tracked fractionally); events are the
//! only points where step times change. The next event is always the
//! minimum over
//!
//! - the earliest **boundary** of a running job (its finish, or its
//!   next deterministic crash point),
//! - the earliest **requeue** of a crashed job whose restart + backoff
//!   has elapsed,
//! - the next **arrival** of the stream,
//!
//! with ties broken by `(time, kind, job id)` — boundaries before
//! requeues before arrivals, so freed GPUs are visible to a
//! same-instant submission. Which queued job is served is the
//! [`QueueOrder`]'s call: under [`QueueOrder::Fifo`] the queue is
//! strict FIFO head-of-line (byte-identical to the pre-predictor
//! engine — policies only choose *where* a gang lands); under
//! [`QueueOrder::Qssf`]/[`QueueOrder::SjfOracle`] the head is the
//! entry with the smallest estimated/true remaining service
//! (starvation-bounded, ties to the oldest entry). Finding that head
//! costs O(log Q), not a scan of the queue: entries escalate in
//! enqueue order, so the head is either the escalated front or the
//! minimum of an ordered `(key, qseq)` index (see `ReadyQueue`).
//! Head-of-line blocking is preserved either way: when the selected
//! head does not fit, nothing behind it backfills.
//!
//! Each event pays for the state it changed. After the event the
//! engine replays the head against the policy, asking only when the
//! head fits the free GPUs in total (a wider head blocks without a
//! call). The partial-server count behind the fragmentation integral
//! moves with `free` where `free` changes, in O(assignment). Step
//! times come from the per-server communicating-replica counters —
//! the same max-min NIC model `pai-sim::cluster` prices. Silent and
//! contained-local gangs never share a NIC, so they are priced once
//! at start; the Ethernet riders are repriced only after an event
//! that started or retired a rider, the only events that move the
//! counters. What stays `O(running)` on every event is the fluid
//! advance of each running job's executed steps and the boundary
//! scan for the next event: both must run per event, in this order
//! of float operations, for the event log to stay bit-identical.

use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};

use pai_faults::ExponentialBackoff;
use pai_hw::{ClusterSpec, Seconds};
use pai_predict::{CalibrationAccum, CalibrationReport, HistoryStore};
use serde::{Deserialize, Serialize};

use crate::error::SchedError;
use crate::job::{SchedJob, SyncClass};
use crate::metrics::{percentile, ClusterMetrics, JobMetrics, BOUNDED_SLOWDOWN_TAU_S};
use crate::order::{
    class_priors_from_jobs, order_for_kind, PredictorSource, QueueOrder, QSSF_STARVATION_AGE_S,
};
use crate::policy::{Policy, PolicyKind};

/// Engine knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Extra delay before a crashed job re-enters the queue, growing
    /// with the job's crash count (on top of the crash's own restart
    /// cost).
    pub requeue_backoff: ExponentialBackoff,
    /// Record the full event log (sweeps turn this off to keep 50k-job
    /// runs lean).
    pub log_events: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        // 15 s doubling to a 4-minute cap — scheduler-scale requeue
        // penalties, far above the PS RPC-scale default. The
        // constructor cannot fail on these constants; the fallback
        // keeps this total without a panic path.
        let backoff =
            ExponentialBackoff::new(Seconds::from_f64(15.0), 2.0, Seconds::from_f64(240.0))
                .unwrap_or_else(|_| ExponentialBackoff::ps_default());
        SchedConfig {
            requeue_backoff: backoff,
            log_events: true,
        }
    }
}

/// What happened at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job entered the queue.
    Arrive,
    /// The job's gang got its GPUs.
    Start,
    /// The job completed all its steps.
    Finish,
    /// The job hit a crash point and lost its GPUs.
    Crash,
    /// The job's restart + backoff elapsed; it re-entered the queue.
    Requeue,
}

/// One event-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotone sequence number.
    pub seq: usize,
    /// Virtual time.
    pub time_s: f64,
    /// What happened.
    pub kind: EventKind,
    /// The job it happened to.
    pub job: usize,
}

/// The engine's result: per-job metrics (stream order), cluster
/// metrics, and the event log (empty unless
/// [`SchedConfig::log_events`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedOutcome {
    /// The policy that produced this schedule (the queue ordering's
    /// label for predictive runs, the placement policy's otherwise).
    pub policy: String,
    /// Per-job outcomes, in stream order.
    pub jobs: Vec<JobMetrics>,
    /// Whole-run metrics.
    pub cluster: ClusterMetrics,
    /// Predicted-vs-actual service-demand calibration — `Some` for
    /// predictive queue orderings (QSSF and the oracles), `None`
    /// under FIFO.
    pub prediction: Option<CalibrationReport>,
    /// The event log.
    pub events: Vec<EventRecord>,
}

/// A job currently holding GPUs.
struct Running {
    job: usize,
    assignment: Vec<(usize, usize)>,
    /// True when the gang's synchronization rides Ethernet from this
    /// placement (always for `Ethernet` jobs, only when split for
    /// `Local` ones) — i.e. it counts toward NIC sharing.
    on_ethernet: bool,
    /// Current per-step time under the live contention state.
    step_time: f64,
    /// Fractional steps at which this dispatch stops: the next crash
    /// point or the job's step count.
    boundary: f64,
    boundary_is_crash: bool,
}

/// Per-job bookkeeping that survives crash requeues.
struct JobState {
    executed: f64,
    next_crash: usize,
    crashes: usize,
    first_start: Option<f64>,
    finish: f64,
    /// Full-duration estimate captured at arrival (NaN under FIFO) —
    /// the "predicted" half of the calibration pair.
    predicted: f64,
}

/// Event candidate classes, in same-instant processing order.
const CLASS_BOUNDARY: u8 = 0;
const CLASS_REQUEUE: u8 = 1;
const CLASS_ARRIVAL: u8 = 2;

/// One queued gang.
struct QueueEntry {
    job: usize,
    /// Monotone enqueue sequence — the FIFO order and every ordering
    /// tie-break.
    qseq: u64,
    /// When the entry was (re)queued — the starvation-aging clock.
    queued_at: f64,
    /// Estimated remaining service at enqueue time (0 under FIFO).
    key: f64,
    /// False once the entry has been served (it stays behind the
    /// front until every older entry is gone).
    live: bool,
}

/// A queue key ordered by [`f64::total_cmp`], the order the linear
/// rule compares keys in.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The gangs waiting for GPUs, in enqueue (`qseq`) order, with the
/// head found in O(log Q).
///
/// The head is the minimum of `(unescalated?, key, qseq)`: entries
/// queued at least `starvation_age` escalate above the rest and are
/// served FIFO among themselves. Every entry is queued with
/// `queued_at = now`, and neither `now` nor `qseq` ever decreases, so
/// `queued_at` is monotone in `qseq` and the escalated entries are
/// always a prefix of the queue. The head is therefore the front when
/// the front is escalated (always, under FIFO), and otherwise — no
/// entry escalated — the minimum of `by_key`, an ordered set of the
/// live entries' `(key, qseq)`.
///
/// Serving an entry behind the front marks it dead in place; dead
/// entries are popped once they reach the front, so the front is
/// always live and FIFO stays a plain push-back/pop-front queue.
struct ReadyQueue {
    entries: VecDeque<QueueEntry>,
    /// Live entries by `(key, qseq)`; empty under FIFO.
    by_key: BTreeSet<(Key, u64)>,
    ordered: bool,
    starvation_age: f64,
    next_qseq: u64,
}

impl ReadyQueue {
    fn new(ordered: bool, starvation_age: f64) -> ReadyQueue {
        ReadyQueue {
            entries: VecDeque::new(),
            by_key: BTreeSet::new(),
            ordered,
            starvation_age,
            next_qseq: 0,
        }
    }

    fn push(&mut self, job: usize, now: f64, key: f64) {
        let qseq = self.next_qseq;
        self.next_qseq += 1;
        if self.ordered {
            self.by_key.insert((Key(key), qseq));
        }
        self.entries.push_back(QueueEntry {
            job,
            qseq,
            queued_at: now,
            key,
            live: true,
        });
    }

    /// Position of the entry to serve next at `now`, if any.
    fn head(&self, now: f64) -> Option<usize> {
        let front = self.entries.front()?;
        if !self.ordered || now - front.queued_at >= self.starvation_age {
            return Some(0);
        }
        // Entries hold consecutive qseqs from the front on.
        let &(_, qseq) = self.by_key.first()?;
        Some((qseq - front.qseq) as usize)
    }

    /// The job queued at position `pos`.
    fn job(&self, pos: usize) -> usize {
        self.entries[pos].job
    }

    /// Serves the entry at position `pos` (a [`ReadyQueue::head`]).
    fn serve(&mut self, pos: usize) {
        let entry = &mut self.entries[pos];
        entry.live = false;
        if self.ordered {
            self.by_key.remove(&(Key(entry.key), entry.qseq));
        }
        while self.entries.front().is_some_and(|e| !e.live) {
            self.entries.pop_front();
        }
    }
}

/// The live remaining-service estimator behind a [`QueueOrder`].
enum Estimator {
    /// FIFO: no estimates, no calibration.
    Inactive,
    /// True remaining solo service demand (SJF oracle, and QSSF's
    /// oracle feed — same arithmetic, so their event logs match
    /// byte-for-byte).
    Oracle,
    /// Adversarially inverted truth.
    Inverted,
    /// The online feature-hashed history store.
    History(Box<HistoryStore>),
}

impl Estimator {
    fn active(&self) -> bool {
        !matches!(self, Estimator::Inactive)
    }

    /// Estimated remaining service of a queued job that has already
    /// executed `executed` of its `steps` (solo per-step time
    /// `solo`). Pure; called at enqueue time only, so a prediction
    /// reflects exactly the history of jobs retired before this
    /// enqueue.
    fn remaining_key(&self, job: &SchedJob, executed: f64, solo: f64) -> f64 {
        let remaining = (job.steps as f64 - executed).max(0.0);
        match self {
            Estimator::Inactive => 0.0,
            Estimator::Oracle => remaining * solo,
            Estimator::Inverted => 1.0 / (remaining * solo).max(f64::MIN_POSITIVE),
            Estimator::History(store) => {
                store.predict(&job.signature).duration_s * (remaining / job.steps.max(1) as f64)
            }
        }
    }
}

/// Per-step time of a gang placed on `assignment` under the live
/// per-server Ethernet sharer counters `comm` — identical to
/// `Placement::step_time_of` over a snapshot of the running set (a
/// test pins this equivalence). `eth_time` is the solo Ethernet
/// transfer time of one step's weight volume.
fn step_time(
    job: &SchedJob,
    assignment: &[(usize, usize)],
    on_ethernet: bool,
    eth_time: f64,
    comm: &[usize],
) -> f64 {
    let sync_term = if on_ethernet {
        let oversub = assignment
            .iter()
            .map(|&(server, _)| comm[server])
            .max()
            .unwrap_or(1)
            .max(1);
        eth_time * oversub as f64
    } else if job.sync == SyncClass::Local {
        job.local_sync_time.as_f64()
    } else {
        0.0
    };
    job.compute_time.as_f64() + sync_term
}

/// Runs the stream to completion under one placement policy with
/// strict FIFO queue ordering — the original engine contract,
/// byte-identical to [`run_ordered`] with [`QueueOrder::Fifo`].
///
/// # Errors
///
/// Same contract as [`run_ordered`].
pub fn run(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    policy: &dyn Policy,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    run_ordered(cluster, jobs, policy, &QueueOrder::Fifo, config)
}

/// Runs one built-in [`PolicyKind`] end to end — placement *and*
/// queue ordering. The QSSF history hash is seeded by `seed`, and its
/// cold-start priors come from the stream's per-class mean realized
/// service demand ([`class_priors_from_jobs`]).
///
/// # Errors
///
/// Same contract as [`run_ordered`].
pub fn run_kind(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    kind: PolicyKind,
    seed: u64,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    let order = order_for_kind(kind, seed, class_priors_from_jobs(jobs, cluster));
    run_ordered(cluster, jobs, kind.policy(), &order, config)
}

/// Runs the stream to completion under one placement policy and one
/// queue ordering.
///
/// Deterministic: the outcome is a pure function of
/// `(cluster, jobs, policy, order, config)` — including the QSSF
/// path, whose history store is trained online in retirement order
/// (itself deterministic) and consulted only at enqueue instants.
///
/// # Errors
///
/// Rejects an empty stream, zero-replica jobs, duplicate ids, and
/// jobs wider than the cluster ([`SchedError::JobTooLarge`] — a gang
/// that can never be admitted would wedge the FIFO queue forever).
/// A custom policy returning a malformed assignment yields
/// [`SchedError::InvalidAssignment`]; one that refuses a feasible job
/// on an otherwise idle cluster yields [`SchedError::Stalled`]. An
/// invalid ordering configuration yields [`SchedError::Predict`] or
/// [`SchedError::InvalidArrival`] before any event runs.
pub fn run_ordered(
    cluster: &ClusterSpec,
    jobs: &[SchedJob],
    policy: &dyn Policy,
    order: &QueueOrder,
    config: &SchedConfig,
) -> Result<SchedOutcome, SchedError> {
    order.validate()?;
    if jobs.is_empty() {
        return Err(SchedError::NoJobs);
    }
    let capacity = cluster.total_gpus();
    let num_servers = cluster.num_servers();
    let per_server = cluster.server().gpus_per_server();
    let mut ids: Vec<usize> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.cnodes == 0 {
            return Err(SchedError::EmptyJob { id: job.id });
        }
        if job.cnodes > capacity {
            return Err(SchedError::JobTooLarge {
                id: job.id,
                requested: job.cnodes,
                capacity,
            });
        }
        ids.push(job.id);
    }
    ids.sort_unstable();
    for pair in ids.windows(2) {
        if pair[0] == pair[1] {
            return Err(SchedError::DuplicateJobId { id: pair[0] });
        }
    }

    // The ordering's live estimator. Oracle-fed QSSF and the SJF
    // oracle share Estimator::Oracle, so their event logs are
    // byte-identical by construction (a test pins this).
    let (mut est, starvation_age, ordered) = match order {
        QueueOrder::Fifo => (Estimator::Inactive, f64::INFINITY, false),
        QueueOrder::Qssf(qssf) => {
            let estimator = match &qssf.predictor {
                PredictorSource::History(hc) => {
                    Estimator::History(Box::new(HistoryStore::new(hc.clone())?))
                }
                PredictorSource::Oracle => Estimator::Oracle,
                PredictorSource::InvertedOracle => Estimator::Inverted,
            };
            (estimator, qssf.starvation_age_s, true)
        }
        QueueOrder::SjfOracle => (Estimator::Oracle, QSSF_STARVATION_AGE_S, true),
    };
    let mut calib = CalibrationAccum::new();

    // Per-job Ethernet transfer time of one step's weight volume.
    let eth_time: Vec<f64> = jobs
        .iter()
        .map(|j| cluster.ethernet().transfer_time(j.weight_bytes).as_f64())
        .collect();
    // Per-job uncontended step time — the oracle's ground truth and
    // the calibration target's per-step unit.
    let solo: Vec<f64> = jobs.iter().map(|j| j.solo_step(cluster).as_f64()).collect();
    // Arrival order: by time, ties by stream position.
    let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .as_f64()
            .total_cmp(&jobs[b].arrival.as_f64())
            .then(a.cmp(&b))
    });

    let mut state: Vec<JobState> = jobs
        .iter()
        .map(|_| JobState {
            executed: 0.0,
            next_crash: 0,
            crashes: 0,
            first_start: None,
            finish: 0.0,
            predicted: f64::NAN,
        })
        .collect();
    let mut free = vec![per_server; num_servers];
    let mut comm = vec![0usize; num_servers];
    let mut running: Vec<Running> = Vec::new();
    let mut queue = ReadyQueue::new(ordered, starvation_age);
    let mut waiting: Vec<(f64, usize)> = Vec::new();
    let mut events: Vec<EventRecord> = Vec::new();
    let mut seq = 0usize;
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut completed = 0usize;
    let mut busy_gpus = 0usize;
    let mut busy_integral = 0.0f64;
    // Servers that are neither idle nor full, kept in step with `free`.
    let mut partial = 0usize;
    let is_partial = |idle: usize| usize::from(idle > 0 && idle < per_server);
    let mut frag_integral = 0.0f64;

    let record = |events: &mut Vec<EventRecord>, seq: &mut usize, time, kind, job| {
        if config.log_events {
            events.push(EventRecord {
                seq: *seq,
                time_s: time,
                kind,
                job,
            });
        }
        *seq += 1;
    };

    while completed < jobs.len() {
        // Next event: min over (time, class, job id).
        let mut best: Option<(f64, u8, usize, usize)> = None;
        // A job appears in at most one candidate class at a time, so
        // the (time, class, job) key is strict and the minimum unique.
        let consider = |cand: (f64, u8, usize, usize),
                        best: &mut Option<(f64, u8, usize, usize)>| {
            let better = match best {
                None => true,
                Some(b) => (cand.0, cand.1, cand.2) < (b.0, b.1, b.2),
            };
            if better {
                *best = Some(cand);
            }
        };
        for (slot, r) in running.iter().enumerate() {
            let remaining = (r.boundary - state[r.job].executed).max(0.0);
            let at = if r.step_time > 0.0 {
                now + remaining * r.step_time
            } else {
                now
            };
            consider((at, CLASS_BOUNDARY, r.job, slot), &mut best);
        }
        for (slot, &(ready, job)) in waiting.iter().enumerate() {
            consider((ready, CLASS_REQUEUE, job, slot), &mut best);
        }
        if next_arrival < arrival_order.len() {
            let job = arrival_order[next_arrival];
            consider(
                (jobs[job].arrival.as_f64(), CLASS_ARRIVAL, job, 0),
                &mut best,
            );
        }
        let (time, class, job, slot) = match best {
            Some(b) => b,
            // Nothing can happen but jobs remain: the policy wedged
            // the queue head on an idle cluster.
            None => {
                let head = queue.head(now).map_or(0, |pos| queue.job(pos));
                return Err(SchedError::Stalled {
                    policy: policy.name(),
                    job: head,
                });
            }
        };

        // Advance the fluid state to the event instant.
        let elapsed = (time - now).max(0.0);
        if elapsed > 0.0 {
            busy_integral += busy_gpus as f64 * elapsed;
            frag_integral += partial as f64 * elapsed;
            for r in &running {
                let s = &mut state[r.job];
                s.executed = if r.step_time > 0.0 {
                    (s.executed + elapsed / r.step_time).min(r.boundary)
                } else {
                    r.boundary
                };
            }
        }
        now = time;
        // Whether this event moved an Ethernet rider on or off a NIC.
        let mut contention_moved = false;

        match class {
            CLASS_BOUNDARY => {
                let r = running.swap_remove(slot);
                for &(server, count) in &r.assignment {
                    partial -= is_partial(free[server]);
                    free[server] += count;
                    partial += is_partial(free[server]);
                    if r.on_ethernet {
                        comm[server] -= count;
                    }
                }
                contention_moved |= r.on_ethernet;
                busy_gpus -= jobs[r.job].cnodes;
                let s = &mut state[r.job];
                s.executed = r.boundary;
                if r.boundary_is_crash {
                    let crash = jobs[r.job].crashes[s.next_crash];
                    s.next_crash += 1;
                    s.crashes += 1;
                    s.executed = (s.executed - crash.lost_steps as f64).max(0.0);
                    let delay = crash.restart.as_f64()
                        + config
                            .requeue_backoff
                            .delay((s.crashes - 1) as u32)
                            .as_f64();
                    waiting.push((now + delay, r.job));
                    record(&mut events, &mut seq, now, EventKind::Crash, r.job);
                } else {
                    s.finish = now;
                    completed += 1;
                    if est.active() {
                        // The realized solo service demand — the
                        // prediction target, known exactly at finish.
                        let actual = jobs[r.job].steps as f64 * solo[r.job];
                        let class = jobs[r.job].signature.class_index();
                        calib.record(class, s.predicted, actual);
                        if let Estimator::History(store) = &mut est {
                            if actual.is_finite() && actual > 0.0 {
                                store.observe(&jobs[r.job].signature, actual)?;
                            }
                        }
                    }
                    record(&mut events, &mut seq, now, EventKind::Finish, r.job);
                }
            }
            CLASS_REQUEUE => {
                waiting.remove(slot);
                // Re-predict with the store as grown by every job
                // retired before this requeue.
                let key = est.remaining_key(&jobs[job], state[job].executed, solo[job]);
                queue.push(job, now, key);
                record(&mut events, &mut seq, now, EventKind::Requeue, job);
            }
            _ => {
                next_arrival += 1;
                let key = est.remaining_key(&jobs[job], 0.0, solo[job]);
                if est.active() {
                    state[job].predicted = key;
                }
                queue.push(job, now, key);
                record(&mut events, &mut seq, now, EventKind::Arrive, job);
            }
        }

        // Replay the ordering's head against the policy until it
        // blocks — head-of-line, no backfill behind a blocked head. A
        // gang wider than the free GPUs blocks without asking the
        // policy (the `Policy` contract).
        while let Some(head_pos) = queue.head(now) {
            let head = queue.job(head_pos);
            let j = &jobs[head];
            if j.cnodes > capacity - busy_gpus {
                break;
            }
            let assignment = match policy.place(j.cnodes, j.sync, &free) {
                Some(a) => a,
                None => break,
            };
            let mut total = 0usize;
            let mut seen: Vec<usize> = Vec::with_capacity(assignment.len());
            for &(server, count) in &assignment {
                if server >= num_servers || count == 0 || count > free[server] {
                    return Err(SchedError::InvalidAssignment {
                        policy: policy.name(),
                        job: head,
                    });
                }
                seen.push(server);
                total += count;
            }
            seen.sort_unstable();
            seen.dedup();
            if total != j.cnodes || seen.len() != assignment.len() {
                return Err(SchedError::InvalidAssignment {
                    policy: policy.name(),
                    job: head,
                });
            }
            queue.serve(head_pos);
            let on_ethernet = match j.sync {
                SyncClass::Ethernet => true,
                // A split local gang spills its synchronization onto
                // Ethernet; contained, it stays on PCIe/NVLink.
                SyncClass::Local => assignment.len() > 1,
                SyncClass::Silent => false,
            };
            for &(server, count) in &assignment {
                partial -= is_partial(free[server]);
                free[server] -= count;
                partial += is_partial(free[server]);
                if on_ethernet {
                    comm[server] += count;
                }
            }
            contention_moved |= on_ethernet;
            busy_gpus += j.cnodes;
            let s = &mut state[head];
            if s.first_start.is_none() {
                s.first_start = Some(now);
            }
            // The crash index only moves forward: each crash point
            // fires at most once, so a rollback below a fired point
            // cannot re-trigger it.
            let (boundary, boundary_is_crash) = match j.crashes.get(s.next_crash) {
                Some(crash) if (crash.at_step as f64) < j.steps as f64 => {
                    ((crash.at_step as f64).max(s.executed), true)
                }
                _ => (j.steps as f64, false),
            };
            // Off Ethernet the step time never changes; a rider's is
            // repriced below with the rest of the riders.
            let priced = step_time(j, &assignment, on_ethernet, eth_time[head], &comm);
            running.push(Running {
                job: head,
                assignment,
                on_ethernet,
                step_time: priced,
                boundary,
                boundary_is_crash,
            });
            record(&mut events, &mut seq, now, EventKind::Start, head);
        }

        // Only Ethernet riders share anything, and their prices move
        // only when `comm` does — so reprice them after such an event
        // and leave every other step time as it was priced at start.
        if contention_moved {
            for r in running.iter_mut().filter(|r| r.on_ethernet) {
                r.step_time = step_time(&jobs[r.job], &r.assignment, true, eth_time[r.job], &comm);
            }
        }
    }

    let makespan = now;
    let mut job_metrics = Vec::with_capacity(jobs.len());
    let mut jcts = Vec::with_capacity(jobs.len());
    let mut queue_sum = 0.0f64;
    let mut slowdown_sum = 0.0f64;
    let mut crash_total = 0usize;
    for (i, job) in jobs.iter().enumerate() {
        let s = &state[i];
        let arrival = job.arrival.as_f64();
        let first_start = s.first_start.unwrap_or(s.finish);
        let jct = s.finish - arrival;
        let solo_demand = job.steps as f64 * solo[i];
        let slowdown = (jct / solo_demand.max(BOUNDED_SLOWDOWN_TAU_S)).max(1.0);
        queue_sum += first_start - arrival;
        slowdown_sum += slowdown;
        crash_total += s.crashes;
        jcts.push(jct);
        job_metrics.push(JobMetrics {
            id: job.id,
            cnodes: job.cnodes,
            steps: job.steps,
            arrival_s: arrival,
            first_start_s: first_start,
            finish_s: s.finish,
            queueing_delay_s: first_start - arrival,
            jct_s: jct,
            slowdown,
            crashes: s.crashes,
        });
    }
    jcts.sort_by(f64::total_cmp);
    let n = jobs.len() as f64;
    let cluster_metrics = ClusterMetrics {
        jobs: jobs.len(),
        crashes: crash_total,
        makespan_s: makespan,
        gpu_utilization: if makespan > 0.0 {
            busy_integral / (capacity as f64 * makespan)
        } else {
            0.0
        },
        fragmentation: if makespan > 0.0 {
            frag_integral / (num_servers as f64 * makespan)
        } else {
            0.0
        },
        mean_queueing_delay_s: queue_sum / n,
        mean_jct_s: jcts.iter().sum::<f64>() / n,
        p50_jct_s: percentile(&jcts, 0.50),
        p95_jct_s: percentile(&jcts, 0.95),
        p99_jct_s: percentile(&jcts, 0.99),
        mean_slowdown: slowdown_sum / n,
    };
    Ok(SchedOutcome {
        policy: order.label().unwrap_or(policy.name()).to_string(),
        jobs: job_metrics,
        cluster: cluster_metrics,
        prediction: if est.active() { calib.report() } else { None },
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CrashPoint;
    use crate::policy::{FifoFirstFit, LocalityAware, PolicyKind, Spread};
    use pai_core::Architecture;
    use pai_hw::Bytes;
    use pai_predict::Signature;
    use pai_sim::cluster::{ClusterJob, Placement};
    use proptest::prelude::*;

    use crate::order::QSSF_STARVATION_AGE_FLOOR_S;

    fn cluster() -> ClusterSpec {
        ClusterSpec::testbed(0.7)
    }

    fn job(id: usize, arrival_s: f64, steps: usize, cnodes: usize, sync: SyncClass) -> SchedJob {
        let class = match sync {
            SyncClass::Silent => Architecture::OneWorkerOneGpu,
            SyncClass::Local => Architecture::AllReduceLocal,
            SyncClass::Ethernet => Architecture::PsWorker,
        };
        SchedJob {
            id,
            arrival: Seconds::from_f64(arrival_s),
            steps,
            cnodes,
            compute_time: Seconds::from_millis(100.0),
            weight_bytes: Bytes::from_mb(50.0),
            sync,
            local_sync_time: Seconds::from_millis(10.0),
            signature: Signature {
                class,
                cnodes,
                weight_bytes: Bytes::from_mb(50.0).as_f64(),
                flops: 1.0e12,
                batch: 32,
            },
            crashes: Vec::new(),
        }
    }

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn lone_job_runs_solo_without_queueing() {
        let c = cluster();
        let j = job(0, 3.0, 20, 8, SyncClass::Silent);
        let out = run(&c, std::slice::from_ref(&j), &FifoFirstFit, &cfg()).expect("runs");
        let m = out.jobs[0];
        assert_eq!(m.queueing_delay_s, 0.0);
        let solo = 20.0 * j.solo_step(&c).as_f64();
        assert!((m.jct_s - solo).abs() < 1e-9, "{} vs {}", m.jct_s, solo);
        assert!((m.slowdown - 1.0).abs() < 1e-9);
        assert_eq!(m.crashes, 0);
        assert!((out.cluster.makespan_s - (3.0 + solo)).abs() < 1e-9);
        // 8 of 512 GPUs busy for the whole post-arrival window; the
        // pre-arrival 3 s dilute the utilization integral.
        let expected_util = (8.0 * solo) / (512.0 * (3.0 + solo));
        assert!((out.cluster.gpu_utilization - expected_util).abs() < 1e-9);
    }

    #[test]
    fn lone_ethernet_gang_self_contends_packed_but_not_spread() {
        // An 8-replica Ethernet gang packed onto one server shares its
        // own NIC 8 ways (the pai-sim model's oversubscription);
        // spread one-per-server it achieves the solo step time.
        let c = cluster();
        let j = job(0, 0.0, 20, 8, SyncClass::Ethernet);
        let packed = run(&c, std::slice::from_ref(&j), &FifoFirstFit, &cfg()).expect("runs");
        let spread = run(&c, std::slice::from_ref(&j), &Spread, &cfg()).expect("runs");
        let solo = 20.0 * j.solo_step(&c).as_f64();
        assert!((spread.jobs[0].jct_s - solo).abs() < 1e-9);
        let contended = 20.0
            * (j.compute_time.as_f64() + 8.0 * c.ethernet().transfer_time(j.weight_bytes).as_f64());
        assert!((packed.jobs[0].jct_s - contended).abs() < 1e-9);
    }

    #[test]
    fn contended_step_times_match_the_placement_model() {
        // Two 4-replica Ethernet jobs first-fit onto one server: the
        // engine's incremental sharer counters must price exactly what
        // Placement::from_assignments prices.
        let c = cluster();
        let a = job(0, 0.0, 40, 4, SyncClass::Ethernet);
        let b = job(1, 0.0, 40, 4, SyncClass::Ethernet);
        let out = run(&c, &[a.clone(), b.clone()], &FifoFirstFit, &cfg()).expect("runs");
        let cluster_jobs = [
            ClusterJob {
                id: 0,
                cnodes: 4,
                local_time: a.compute_time,
                ethernet_bytes: a.weight_bytes,
            },
            ClusterJob {
                id: 1,
                cnodes: 4,
                local_time: b.compute_time,
                ethernet_bytes: b.weight_bytes,
            },
        ];
        let snapshot =
            Placement::from_assignments(&c, &cluster_jobs, &[vec![(0, 4)], vec![(0, 4)]])
                .expect("valid assignment");
        let contended = snapshot.job_step_time(0).expect("placed").as_f64();
        // Both jobs run contended until both finish simultaneously.
        assert!((out.jobs[0].jct_s - 40.0 * contended).abs() < 1e-9);
        assert!((out.jobs[1].jct_s - 40.0 * contended).abs() < 1e-9);
        // 40 contended steps clear the bounded-slowdown floor.
        assert!(out.jobs[0].slowdown > 1.0);
    }

    #[test]
    fn departures_relieve_contention() {
        // A short and a long Ethernet job share a NIC; once the short
        // one departs, the long one's remaining steps speed up, so its
        // JCT lands strictly between fully-contended and solo.
        let c = cluster();
        let short = job(0, 0.0, 5, 4, SyncClass::Ethernet);
        let long = job(1, 0.0, 50, 4, SyncClass::Ethernet);
        let out = run(&c, &[short, long.clone()], &FifoFirstFit, &cfg()).expect("runs");
        let solo = 50.0 * long.solo_step(&c).as_f64();
        let m = out.jobs[1];
        assert!(m.jct_s > solo, "never faster than solo");
        assert!(
            m.jct_s
                < 50.0
                    * (long.compute_time.as_f64()
                        + 8.0 * c.ethernet().transfer_time(long.weight_bytes).as_f64()),
            "contention must relax after the short job departs"
        );
    }

    #[test]
    fn full_cluster_queues_the_next_gang() {
        let c = cluster();
        let wall = job(0, 0.0, 200, 512, SyncClass::Silent);
        let late = job(1, 1.0, 10, 8, SyncClass::Silent);
        let out = run(&c, &[wall.clone(), late], &FifoFirstFit, &cfg()).expect("runs");
        let wall_finish = 200.0 * wall.compute_time.as_f64();
        let m = out.jobs[1];
        assert!((m.first_start_s - wall_finish).abs() < 1e-9);
        assert!((m.queueing_delay_s - (wall_finish - 1.0)).abs() < 1e-9);
        assert!(m.slowdown > 1.0, "queueing counts toward slowdown");
    }

    #[test]
    fn crashes_requeue_with_restart_and_backoff() {
        let c = cluster();
        let mut j = job(0, 0.0, 10, 8, SyncClass::Silent);
        j.crashes = vec![CrashPoint {
            at_step: 5,
            restart: Seconds::from_f64(10.0),
            lost_steps: 3,
        }];
        let config = cfg();
        let out = run(&c, &[j.clone()], &FifoFirstFit, &config).expect("runs");
        let step = j.compute_time.as_f64();
        let backoff = config.requeue_backoff.delay(0).as_f64();
        // 5 steps, crash, 10 s restart + backoff, rerun from step 2.
        let expected = 5.0 * step + 10.0 + backoff + 8.0 * step;
        let m = out.jobs[0];
        assert_eq!(m.crashes, 1);
        assert!(
            (m.jct_s - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.jct_s
        );
        assert_eq!(out.cluster.crashes, 1);
        let kinds: Vec<EventKind> = out.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrive,
                EventKind::Start,
                EventKind::Crash,
                EventKind::Requeue,
                EventKind::Start,
                EventKind::Finish
            ]
        );
    }

    #[test]
    fn repeated_crash_points_each_fire_once() {
        // Losing more steps than the gap between crash points must not
        // loop: each point fires once and the index only moves
        // forward.
        let c = cluster();
        let mut j = job(0, 0.0, 10, 8, SyncClass::Silent);
        j.crashes = vec![
            CrashPoint {
                at_step: 2,
                restart: Seconds::from_f64(1.0),
                lost_steps: 2,
            },
            CrashPoint {
                at_step: 2,
                restart: Seconds::from_f64(1.0),
                lost_steps: 2,
            },
        ];
        let out = run(&c, &[j], &FifoFirstFit, &cfg()).expect("terminates");
        assert_eq!(out.jobs[0].crashes, 2);
        assert!(out.jobs[0].jct_s > 0.0);
    }

    #[test]
    fn locality_policy_contains_local_gangs_and_wins() {
        // A 4-wide silent job occupies half of server 0; an 8-wide
        // AllReduce-Local gang then either splits onto Ethernet
        // (first-fit) or lands whole on server 1 (locality-aware).
        let c = cluster();
        let filler = job(0, 0.0, 400, 4, SyncClass::Silent);
        let mut arl = job(1, 0.1, 50, 8, SyncClass::Local);
        arl.weight_bytes = Bytes::from_mb(200.0);
        let jobs = [filler, arl.clone()];
        let ff = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        let loc = run(&c, &jobs, &LocalityAware, &cfg()).expect("runs");
        let contained = 50.0 * (arl.compute_time + arl.local_sync_time).as_f64();
        assert!((loc.jobs[1].jct_s - contained).abs() < 1e-9);
        assert!(
            ff.jobs[1].jct_s > loc.jobs[1].jct_s * 2.0,
            "split gang pays Ethernet: {} vs {}",
            ff.jobs[1].jct_s,
            loc.jobs[1].jct_s
        );
    }

    #[test]
    fn spread_relieves_nic_sharing_for_ethernet_gangs() {
        let c = cluster();
        let a = job(0, 0.0, 20, 4, SyncClass::Ethernet);
        let b = job(1, 0.0, 20, 4, SyncClass::Ethernet);
        let jobs = [a, b];
        let packed = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        let spread = run(&c, &jobs, &Spread, &cfg()).expect("runs");
        // One replica per server: no sharing at all.
        assert!((spread.jobs[0].slowdown - 1.0).abs() < 1e-9);
        assert!(packed.jobs[0].jct_s > spread.jobs[0].jct_s);
        // The price: spread strands partial servers.
        assert!(spread.cluster.fragmentation > packed.cluster.fragmentation);
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let c = cluster();
        assert_eq!(
            run(&c, &[], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::NoJobs
        );
        let zero = job(0, 0.0, 10, 0, SyncClass::Silent);
        assert_eq!(
            run(&c, &[zero], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::EmptyJob { id: 0 }
        );
        let wide = job(0, 0.0, 10, 513, SyncClass::Silent);
        assert_eq!(
            run(&c, &[wide], &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::JobTooLarge {
                id: 0,
                requested: 513,
                capacity: 512
            }
        );
        let twins = [
            job(3, 0.0, 10, 4, SyncClass::Silent),
            job(3, 1.0, 10, 4, SyncClass::Silent),
        ];
        assert_eq!(
            run(&c, &twins, &FifoFirstFit, &cfg()).unwrap_err(),
            SchedError::DuplicateJobId { id: 3 }
        );
    }

    struct RefuseAll;
    impl Policy for RefuseAll {
        fn name(&self) -> &'static str {
            "refuse-all"
        }
        fn place(&self, _: usize, _: SyncClass, _: &[usize]) -> Option<Vec<(usize, usize)>> {
            None
        }
    }

    struct Overcommit;
    impl Policy for Overcommit {
        fn name(&self) -> &'static str {
            "overcommit"
        }
        fn place(&self, cnodes: usize, _: SyncClass, _: &[usize]) -> Option<Vec<(usize, usize)>> {
            Some(vec![(0, cnodes), (0, cnodes)])
        }
    }

    #[test]
    fn misbehaving_policies_are_typed_errors_not_hangs() {
        let c = cluster();
        let jobs = [job(0, 0.0, 10, 4, SyncClass::Silent)];
        assert_eq!(
            run(&c, &jobs, &RefuseAll, &cfg()).unwrap_err(),
            SchedError::Stalled {
                policy: "refuse-all",
                job: 0
            }
        );
        assert_eq!(
            run(&c, &jobs, &Overcommit, &cfg()).unwrap_err(),
            SchedError::InvalidAssignment {
                policy: "overcommit",
                job: 0
            }
        );
    }

    /// Forwards to a built-in policy and records every call's
    /// `(cnodes, total free GPUs, placed?)`.
    struct Recording {
        inner: &'static dyn Policy,
        calls: std::sync::Mutex<Vec<(usize, usize, bool)>>,
    }
    impl Policy for Recording {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn place(
            &self,
            cnodes: usize,
            sync: SyncClass,
            free: &[usize],
        ) -> Option<Vec<(usize, usize)>> {
            let out = self.inner.place(cnodes, sync, free);
            let mut calls = self.calls.lock().expect("no call panics while recording");
            calls.push((cnodes, free.iter().sum(), out.is_some()));
            out
        }
    }

    #[test]
    fn policies_are_only_asked_when_the_gang_fits() {
        // Wide gangs arriving faster than they drain, so heads block
        // on capacity again and again.
        let c = cluster();
        let jobs: Vec<SchedJob> = (0..60)
            .map(|i| {
                let sync = [SyncClass::Silent, SyncClass::Local, SyncClass::Ethernet][i % 3];
                job(
                    i,
                    i as f64 * 0.05,
                    20 + i % 7,
                    [96, 200, 8, 320, 1][i % 5],
                    sync,
                )
            })
            .collect();
        for kind in PolicyKind::ALL {
            let recording = Recording {
                inner: kind.policy(),
                calls: std::sync::Mutex::new(Vec::new()),
            };
            let order = order_for_kind(kind, 7, class_priors_from_jobs(&jobs, &c));
            let out = run_ordered(&c, &jobs, &recording, &order, &cfg()).expect("runs");
            let direct = run_kind(&c, &jobs, kind, 7, &cfg()).expect("runs");
            assert_eq!(
                out.events,
                direct.events,
                "{}: recording is transparent",
                kind.name()
            );
            assert!(
                out.jobs.iter().any(|m| m.queueing_delay_s > 0.0),
                "{}: the stream must queue",
                kind.name()
            );
            let calls = recording.calls.into_inner().expect("not poisoned");
            let starts = out
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Start)
                .count();
            assert_eq!(calls.len(), starts, "{}: one call per start", kind.name());
            for (cnodes, free, placed) in calls {
                assert!(
                    cnodes <= free,
                    "{}: asked for {cnodes} of {free} free",
                    kind.name()
                );
                assert!(
                    placed,
                    "{}: a built-in policy refused a fitting gang",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn event_log_is_ordered_and_gated_by_config() {
        let c = cluster();
        let jobs = [
            job(0, 0.0, 10, 8, SyncClass::Ethernet),
            job(1, 0.5, 10, 8, SyncClass::Local),
            job(2, 1.0, 10, 8, SyncClass::Silent),
        ];
        let out = run(&c, &jobs, &FifoFirstFit, &cfg()).expect("runs");
        assert!(!out.events.is_empty());
        for pair in out.events.windows(2) {
            assert!(pair[1].seq == pair[0].seq + 1);
            assert!(pair[1].time_s >= pair[0].time_s);
        }
        assert_eq!(
            out.events
                .iter()
                .filter(|e| e.kind == EventKind::Finish)
                .count(),
            3
        );
        let quiet = SchedConfig {
            log_events: false,
            ..cfg()
        };
        let silent_out = run(&c, &jobs, &FifoFirstFit, &quiet).expect("runs");
        assert!(silent_out.events.is_empty());
        assert_eq!(
            silent_out.cluster, out.cluster,
            "the log is observation only"
        );
    }

    #[test]
    fn metrics_stay_in_their_ranges_under_every_policy() {
        let c = cluster();
        let mut jobs = Vec::new();
        for i in 0..40 {
            let sync = match i % 3 {
                0 => SyncClass::Silent,
                1 => SyncClass::Local,
                _ => SyncClass::Ethernet,
            };
            jobs.push(job(i, i as f64 * 0.3, 10 + i, 1 + (i * 7) % 16, sync));
        }
        for kind in PolicyKind::ALL {
            let out = run_kind(&c, &jobs, kind, 7, &cfg()).expect("runs");
            assert_eq!(out.policy, kind.name());
            let predictive = matches!(kind, PolicyKind::Qssf | PolicyKind::SjfOracle);
            assert_eq!(out.prediction.is_some(), predictive, "{}", kind.name());
            let m = out.cluster;
            assert_eq!(m.jobs, 40);
            assert!(m.gpu_utilization > 0.0 && m.gpu_utilization <= 1.0);
            assert!((0.0..=1.0).contains(&m.fragmentation));
            assert!(m.makespan_s > 0.0);
            assert!(m.p50_jct_s <= m.p95_jct_s && m.p95_jct_s <= m.p99_jct_s);
            assert!(m.mean_slowdown >= 1.0 - 1e-9);
            assert!(m.mean_queueing_delay_s >= 0.0);
            for jm in &out.jobs {
                assert!(jm.finish_s >= jm.first_start_s);
                assert!(jm.first_start_s >= jm.arrival_s);
                assert!(jm.slowdown >= 1.0 - 1e-9);
            }
        }
    }

    /// The queue entry to serve next by a linear scan: index 0 under
    /// FIFO, otherwise the minimum of `(unescalated?, key, qseq)` with
    /// entries older than `age` escalated to FIFO service among
    /// themselves — the starvation bound. The engine finds the same entry
    /// in O(log Q) through [`ReadyQueue::head`]; this O(Q) scan is the
    /// rule's definition, kept as the oracle its tests compare against.
    fn select_head(
        queue: &VecDeque<QueueEntry>,
        ordered: bool,
        now: f64,
        age: f64,
    ) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        if !ordered {
            return Some(0);
        }
        let mut best = 0usize;
        for i in 1..queue.len() {
            let (cand, incumbent) = (&queue[i], &queue[best]);
            let cand_escalated = now - cand.queued_at >= age;
            let best_escalated = now - incumbent.queued_at >= age;
            let better = match (cand_escalated, best_escalated) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => cand.qseq < incumbent.qseq,
                (false, false) => match cand.key.total_cmp(&incumbent.key) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => cand.qseq < incumbent.qseq,
                },
            };
            if better {
                best = i;
            }
        }
        Some(best)
    }

    /// One step of the differential drive.
    #[derive(Debug, Clone)]
    enum QueueOp {
        /// A fresh job arrives with this key.
        Enqueue(f64),
        /// The head, if any, is served.
        Serve,
        /// The longest-served job re-enters with this key.
        Requeue(f64),
    }

    /// Keys with many ties, zero, and the far end of the range.
    fn queue_key() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (0u8..4).prop_map(f64::from),
            Just(1.0e300),
            Just(f64::MAX),
            1.0e-3f64..1.0e6,
        ]
    }

    /// Arrivals and serves three times as often as requeues.
    fn queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            queue_key().prop_map(QueueOp::Enqueue),
            queue_key().prop_map(QueueOp::Enqueue),
            queue_key().prop_map(QueueOp::Enqueue),
            Just(QueueOp::Serve),
            Just(QueueOp::Serve),
            Just(QueueOp::Serve),
            queue_key().prop_map(QueueOp::Requeue),
        ]
    }

    /// Starvation ages: tiny positive, the 6 h floor, the default.
    fn starvation_age() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::MIN_POSITIVE),
            1.0e-9f64..1.0e-3,
            Just(QSSF_STARVATION_AGE_FLOOR_S as f64),
            Just(QSSF_STARVATION_AGE_S),
        ]
    }

    /// Time steps in units of the starvation age, so entries cross
    /// it — some exactly.
    fn age_fraction() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), Just(0.25), 0.0f64..2.0]
    }

    proptest! {
        /// The indexed queue serves exactly the entry the linear scan
        /// picks, at every step of any enqueue/serve/requeue run.
        #[test]
        fn indexed_head_matches_the_linear_scan(
            age in starvation_age(),
            script in proptest::collection::vec((age_fraction(), queue_op()), 1..200),
            ordered in (0u8..5).prop_map(|n| n > 0),
        ) {
            let mut linear: VecDeque<QueueEntry> = VecDeque::new();
            let mut indexed = ReadyQueue::new(ordered, age);
            let mut served: VecDeque<usize> = VecDeque::new();
            let (mut now, mut next_job, mut qseq) = (0.0f64, 0usize, 0u64);
            for (fraction, op) in script {
                now += fraction * age;
                let mut enqueue = |job: usize, key: f64, linear: &mut VecDeque<QueueEntry>| {
                    linear.push_back(QueueEntry { job, qseq, queued_at: now, key, live: true });
                    qseq += 1;
                    indexed.push(job, now, key);
                };
                match op {
                    QueueOp::Enqueue(key) => {
                        enqueue(next_job, key, &mut linear);
                        next_job += 1;
                    }
                    QueueOp::Requeue(key) => {
                        if let Some(job) = served.pop_front() {
                            enqueue(job, key, &mut linear);
                        }
                    }
                    QueueOp::Serve => {
                        if let Some(i) = select_head(&linear, ordered, now, age) {
                            let pos = indexed.head(now).expect("a non-empty queue has a head");
                            prop_assert_eq!(indexed.job(pos), linear[i].job);
                            served.push_back(linear[i].job);
                            linear.remove(i);
                            indexed.serve(pos);
                        }
                    }
                }
                let expected = select_head(&linear, ordered, now, age).map(|i| linear[i].job);
                prop_assert_eq!(indexed.head(now).map(|pos| indexed.job(pos)), expected);
            }
        }
    }
}
