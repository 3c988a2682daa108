//! Event-log contracts of the engine's queue orderings:
//!
//! 1. saturated replays — a 10k-job stream arriving four times faster
//!    than the testbed serves it — reproduce FNV-1a digests of their
//!    event logs pinned on the engine's original linear-scan head
//!    selection, byte for byte, under every ordering path
//!    (FIFO, online QSSF, the SJF oracle, inverted-oracle QSSF, and
//!    QSSF with a one-hour starvation age so escalation fires often)
//!    and under the best-fit, spread and locality-aware placements;
//!    drained replays of the same population at the `schedule`
//!    experiment's offered load of 0.6 are pinned under all six
//!    policies. The placement and drained digests were recorded on the
//!    engine that still asked the policy about every head and repriced
//!    every running job on every event;
//! 2. an independent checker replays each event log against its jobs
//!    and asserts the engine's invariants: running GPUs never exceed
//!    the cluster, every job walks Arrive → (Start → Crash → Requeue)*
//!    → Start → Finish exactly once, and while an escalated entry is
//!    queued only the oldest queued entry may start.
//!
//! The checker runs on every pinned replay and on the six-policy ×
//! two-seed replays behind the `schedule` golden fixture (2 000 jobs).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use pai_core::PerfModel;
use pai_hw::ClusterSpec;
use pai_par::Threads;
use pai_predict::HistoryConfig;
use pai_sched::{
    class_priors, class_priors_from_jobs, order_for_kind, policy_sweep, realize_stream,
    run_ordered, templates_from_population, ArrivalConfig, EventKind, EventRecord, PolicyKind,
    PredictorSource, QssfConfig, QueueOrder, SchedConfig, SchedJob, SweepConfig,
    QSSF_STARVATION_AGE_S,
};
use pai_trace::{FailureSampler, Population, PopulationConfig};

/// The repro harness's pinned seed (`pai_repro::SEED`).
const SEED: u64 = 1_905_930;
/// The `schedule` experiment's second stream seed.
const SEED_B: u64 = SEED ^ 0x9E37_79B9_7F4A_7C15;
/// Widest gang admitted by the testbed replays, in GPUs.
const WIDTH_CAP: usize = 64;

/// FNV-1a over each record's `(seq, time bits, kind, job)`.
fn digest(events: &[EventRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for e in events {
        let kind = match e.kind {
            EventKind::Arrive => 0u8,
            EventKind::Start => 1,
            EventKind::Finish => 2,
            EventKind::Crash => 3,
            EventKind::Requeue => 4,
        };
        let bytes = (e.seq as u64)
            .to_le_bytes()
            .into_iter()
            .chain(e.time_s.to_bits().to_le_bytes())
            .chain([kind])
            .chain((e.job as u64).to_le_bytes());
        for byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Where a job is in its lifecycle while the checker replays a log.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Unarrived,
    /// Queued since `at`, with enqueue ordinal `ord`.
    Queued {
        ord: u64,
        at: f64,
    },
    Running,
    Crashed,
    Finished,
}

/// What the checker counted while replaying a log.
#[derive(Debug, Default)]
struct LogStats {
    starts: usize,
    /// Starts made while the oldest queued entry was escalated.
    escalated_starts: usize,
}

/// Replays `events` against `jobs` (event `job` fields index `jobs`)
/// on a cluster of `total_gpus` and checks the engine's invariants.
///
/// `escalate_after_s` is the ordering's starvation age: an entry
/// queued at least that long is escalated, and while any escalated
/// entry is queued only the oldest queued entry may start. FIFO
/// passes `0.0` — every entry is escalated the instant it is queued,
/// so every start must serve the oldest entry. Event times must not
/// decrease, so enqueue times grow with enqueue order and the oldest
/// entry is escalated whenever any entry is.
fn check_event_log(
    jobs: &[SchedJob],
    total_gpus: usize,
    escalate_after_s: f64,
    events: &[EventRecord],
) -> Result<LogStats, String> {
    let mut phase = vec![Phase::Unarrived; jobs.len()];
    let mut queue: BTreeMap<u64, usize> = BTreeMap::new();
    let (mut next_ord, mut running_gpus, mut last_time) = (0u64, 0usize, f64::NEG_INFINITY);
    let mut stats = LogStats::default();
    for (i, e) in events.iter().enumerate() {
        let at = format!("event {i} ({:?} job {} at {} s)", e.kind, e.job, e.time_s);
        if e.seq != i {
            return Err(format!("{at}: seq {} out of order", e.seq));
        }
        if e.time_s < last_time {
            return Err(format!("{at}: time went backwards from {last_time}"));
        }
        last_time = e.time_s;
        let job = jobs
            .get(e.job)
            .ok_or_else(|| format!("{at}: no such job"))?;
        let now = phase[e.job];
        let next = match (e.kind, now) {
            (EventKind::Arrive, Phase::Unarrived) | (EventKind::Requeue, Phase::Crashed) => {
                queue.insert(next_ord, e.job);
                next_ord += 1;
                Phase::Queued {
                    ord: next_ord - 1,
                    at: e.time_s,
                }
            }
            (EventKind::Start, Phase::Queued { ord, .. }) => {
                let (&oldest_ord, &oldest) = queue.iter().next().ok_or("queue empty")?;
                if let Phase::Queued { at: oldest_at, .. } = phase[oldest] {
                    if e.time_s - oldest_at >= escalate_after_s {
                        stats.escalated_starts += 1;
                        if oldest_ord != ord {
                            return Err(format!(
                                "{at}: job {oldest} queued since {oldest_at} s is escalated, \
                                 but another job started"
                            ));
                        }
                    }
                }
                queue.remove(&ord);
                running_gpus += job.cnodes;
                if running_gpus > total_gpus {
                    return Err(format!(
                        "{at}: {running_gpus} GPUs running on a {total_gpus}-GPU cluster"
                    ));
                }
                stats.starts += 1;
                Phase::Running
            }
            (EventKind::Finish | EventKind::Crash, Phase::Running) => {
                running_gpus -= job.cnodes;
                if e.kind == EventKind::Finish {
                    Phase::Finished
                } else {
                    Phase::Crashed
                }
            }
            (kind, from) => return Err(format!("{at}: {kind:?} not allowed from {from:?}")),
        };
        phase[e.job] = next;
    }
    if let Some(job) = phase.iter().position(|&p| p != Phase::Finished) {
        return Err(format!("job {job} ends the log {:?}", phase[job]));
    }
    Ok(stats)
}

/// The starvation age the engine applies under `order`.
fn escalation_age(order: &QueueOrder) -> f64 {
    match order {
        QueueOrder::Fifo => 0.0,
        QueueOrder::Qssf(config) => config.starvation_age_s,
        QueueOrder::SjfOracle => QSSF_STARVATION_AGE_S,
    }
}

fn population(jobs: usize) -> Population {
    let config = PopulationConfig::paper_scale(jobs).expect("valid scale");
    Population::builder(config)
        .seed(SEED)
        .build()
        .expect("valid config")
}

/// The saturated stream: 10k population jobs capped at 64 GPUs,
/// arriving at four times the testbed's solo-work capacity.
fn saturated() -> &'static (ClusterSpec, Vec<SchedJob>) {
    static STREAM: OnceLock<(ClusterSpec, Vec<SchedJob>)> = OnceLock::new();
    STREAM.get_or_init(|| {
        let cluster = ClusterSpec::testbed(0.7);
        let model = PerfModel::paper_default();
        let (templates, _) = templates_from_population(&model, &population(10_000), WIDTH_CAP);
        let arrival = ArrivalConfig::for_offered_load(
            &templates,
            &cluster,
            4.0,
            ArrivalConfig::default().steps_range,
        )
        .expect("valid load");
        let jobs = realize_stream(
            &templates,
            &arrival,
            &FailureSampler::paper_calibrated(),
            SEED,
        )
        .expect("valid stream");
        (cluster, jobs)
    })
}

/// Replays the saturated stream under `order` and checks its log
/// against `expected` and the invariants.
fn saturated_replay(kind: PolicyKind, order: QueueOrder, expected: u64) -> LogStats {
    let (cluster, jobs) = saturated();
    let out = run_ordered(
        cluster,
        jobs,
        kind.policy(),
        &order,
        &SchedConfig::default(),
    )
    .expect("runs");
    let stats = check_event_log(
        jobs,
        cluster.total_gpus(),
        escalation_age(&order),
        &out.events,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert_eq!(
        digest(&out.events),
        expected,
        "{}: the event log moved",
        kind.name()
    );
    stats
}

fn qssf(predictor: PredictorSource, starvation_age_s: f64) -> QueueOrder {
    QueueOrder::Qssf(QssfConfig {
        predictor,
        starvation_age_s,
    })
}

fn history() -> PredictorSource {
    let (cluster, jobs) = saturated();
    PredictorSource::History(HistoryConfig::with_priors(
        SEED,
        class_priors_from_jobs(jobs, cluster),
    ))
}

#[test]
fn saturated_fifo_replay_is_pinned() {
    saturated_replay(
        PolicyKind::FifoFirstFit,
        QueueOrder::Fifo,
        0x4deb_ff7e_5d33_eac0,
    );
}

#[test]
fn saturated_qssf_replay_is_pinned() {
    let order = qssf(history(), QSSF_STARVATION_AGE_S);
    let (cluster, jobs) = saturated();
    assert_eq!(
        order,
        order_for_kind(
            PolicyKind::Qssf,
            SEED,
            class_priors_from_jobs(jobs, cluster)
        ),
        "the pinned replay is what run_kind runs"
    );
    saturated_replay(PolicyKind::Qssf, order, 0xfb5e_90a3_1a9b_23fd);
}

#[test]
fn saturated_sjf_oracle_replay_is_pinned() {
    saturated_replay(
        PolicyKind::SjfOracle,
        QueueOrder::SjfOracle,
        0x6686_a41a_cd14_3b23,
    );
}

#[test]
fn saturated_inverted_oracle_replay_is_pinned() {
    let order = qssf(PredictorSource::InvertedOracle, QSSF_STARVATION_AGE_S);
    saturated_replay(PolicyKind::Qssf, order, 0x3164_802f_ac62_29f7);
}

#[test]
fn saturated_short_starvation_age_replay_is_pinned_and_escalates() {
    let stats = saturated_replay(
        PolicyKind::Qssf,
        qssf(history(), 3_600.0),
        0x673f_1579_532b_aec5,
    );
    assert!(
        stats.escalated_starts > stats.starts / 10,
        "a one-hour age must escalate often: {stats:?}"
    );
}

#[test]
fn saturated_placement_replays_are_pinned() {
    for (kind, expected) in [
        (PolicyKind::BestFitPacked, 0x9197_7e23_78ab_d93b),
        (PolicyKind::Spread, 0xf049_5864_6157_d0db),
        (PolicyKind::LocalityAware, 0xb26b_7f43_a1e2_2689),
    ] {
        saturated_replay(kind, QueueOrder::Fifo, expected);
    }
}

/// The drained stream: the same 10k population at the `schedule`
/// experiment's offered load of 0.6, so the queue empties between
/// bursts and most of the run is many gangs sharing NICs across
/// servers — where repricing and fragmentation do the most work.
fn drained() -> &'static (ClusterSpec, Vec<SchedJob>) {
    static STREAM: OnceLock<(ClusterSpec, Vec<SchedJob>)> = OnceLock::new();
    STREAM.get_or_init(|| {
        let cluster = ClusterSpec::testbed(0.7);
        let model = PerfModel::paper_default();
        let (templates, _) = templates_from_population(&model, &population(10_000), WIDTH_CAP);
        let arrival = ArrivalConfig::for_offered_load(
            &templates,
            &cluster,
            0.6,
            ArrivalConfig::default().steps_range,
        )
        .expect("valid load");
        let jobs = realize_stream(
            &templates,
            &arrival,
            &FailureSampler::paper_calibrated(),
            SEED,
        )
        .expect("valid stream");
        (cluster, jobs)
    })
}

#[test]
fn drained_replays_of_every_policy_are_pinned() {
    let (cluster, jobs) = drained();
    let expected = [
        (PolicyKind::FifoFirstFit, 0x59e7_41b4_1e14_20a0u64),
        (PolicyKind::BestFitPacked, 0xce36_7aae_caa1_b8b6),
        (PolicyKind::Spread, 0xf41e_edbe_5cc9_c98d),
        (PolicyKind::LocalityAware, 0x8949_6113_df31_5a65),
        (PolicyKind::Qssf, 0x96b4_dbe3_df0b_e810),
        (PolicyKind::SjfOracle, 0xf4f6_f30f_12e5_b437),
    ];
    assert_eq!(expected.map(|(kind, _)| kind), PolicyKind::ALL);
    for (kind, pinned) in expected {
        let order = order_for_kind(kind, SEED, class_priors_from_jobs(jobs, cluster));
        let out = run_ordered(
            cluster,
            jobs,
            kind.policy(),
            &order,
            &SchedConfig::default(),
        )
        .expect("runs");
        check_event_log(
            jobs,
            cluster.total_gpus(),
            escalation_age(&order),
            &out.events,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(
            digest(&out.events),
            pinned,
            "{}: the event log moved",
            kind.name()
        );
    }
}

#[test]
fn golden_schedule_replays_keep_the_invariants() {
    let cluster = ClusterSpec::testbed(0.7);
    let model = PerfModel::paper_default();
    let pop = population(2_000);
    let (templates, _) = templates_from_population(&model, &pop, WIDTH_CAP);
    let arrival = ArrivalConfig::for_offered_load(
        &templates,
        &cluster,
        0.6,
        ArrivalConfig::default().steps_range,
    )
    .expect("valid load");
    // The exact sweep behind `repro schedule` and its golden fixture.
    let sweep = SweepConfig {
        arrival,
        seeds: vec![SEED, SEED_B],
        policies: PolicyKind::ALL.to_vec(),
        width_cap: Some(WIDTH_CAP),
        ..SweepConfig::default()
    };
    let points = policy_sweep(&cluster, &model, &pop, &sweep, Threads::SERIAL).expect("sweeps");
    assert_eq!(points.len(), 12);
    let priors = class_priors(&templates, &cluster, &arrival);
    let failures = FailureSampler::paper_calibrated();
    for point in &points {
        let kind = PolicyKind::ALL
            .into_iter()
            .find(|k| k.name() == point.policy)
            .expect("a built-in policy");
        let jobs = realize_stream(&templates, &arrival, &failures, point.seed).expect("stream");
        let order = order_for_kind(kind, point.seed, priors);
        let out = run_ordered(
            &cluster,
            &jobs,
            kind.policy(),
            &order,
            &SchedConfig::default(),
        )
        .expect("runs");
        assert_eq!(
            out.cluster,
            point.metrics,
            "{} is the swept replay",
            kind.name()
        );
        let stats = check_event_log(
            &jobs,
            cluster.total_gpus(),
            escalation_age(&order),
            &out.events,
        )
        .unwrap_or_else(|e| panic!("{} seed {}: {e}", kind.name(), point.seed));
        assert!(stats.starts >= jobs.len());
    }
}

#[test]
fn the_checker_rejects_broken_logs() {
    let (cluster, jobs) = saturated();
    let jobs = &jobs[..3];
    let event = |seq, time_s, kind, job| EventRecord {
        seq,
        time_s,
        kind,
        job,
    };
    use EventKind::{Arrive, Crash, Finish, Requeue, Start};
    let good = [
        (0.0, Arrive, 0),
        (1.0, Arrive, 1),
        (2.0, Arrive, 2),
        (3.0, Start, 0),
        (4.0, Crash, 0),
        (5.0, Requeue, 0),
        (6.0, Start, 2),
        (7.0, Start, 1),
        (8.0, Start, 0),
        (9.0, Finish, 0),
        (9.0, Finish, 1),
        (9.0, Finish, 2),
    ];
    let log = |rows: &[(f64, EventKind, usize)]| -> Vec<EventRecord> {
        rows.iter()
            .enumerate()
            .map(|(seq, &(t, kind, job))| event(seq, t, kind, job))
            .collect()
    };
    let gpus = cluster.total_gpus();
    let stats = check_event_log(jobs, gpus, 100.0, &log(&good)).expect("a valid log");
    assert_eq!((stats.starts, stats.escalated_starts), (4, 0));
    // Job 1 has waited 5 s when job 2 overtakes it.
    assert!(check_event_log(jobs, gpus, 5.0, &log(&good)).is_err());
    assert!(check_event_log(jobs, gpus, 0.0, &log(&good)).is_err());
    let wide = jobs[0].cnodes + jobs[1].cnodes + jobs[2].cnodes - 1;
    assert!(check_event_log(jobs, wide, 100.0, &log(&good)).is_err());
    let mut twice = good.to_vec();
    twice.push((10.0, Finish, 2));
    assert!(check_event_log(jobs, gpus, 100.0, &log(&twice)).is_err());
    let mut unfinished = good.to_vec();
    unfinished.pop();
    assert!(check_event_log(jobs, gpus, 100.0, &log(&unfinished)).is_err());
    let mut backwards = good.to_vec();
    backwards[4].0 = 2.5;
    assert!(check_event_log(jobs, gpus, 100.0, &log(&backwards)).is_err());
    let mut skip_requeue = good.to_vec();
    skip_requeue.remove(5);
    assert!(check_event_log(jobs, gpus, 100.0, &log(&skip_requeue)).is_err());
}
