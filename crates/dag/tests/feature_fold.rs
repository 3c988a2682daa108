//! The feature fold against its oracle.
//!
//! [`StepTimeEngine`] prices a feature record's DAG without building
//! it. The oracle builds it: `evaluate(&from_features(..), &path, s)`.
//! The two must agree bit for bit on every [`ComponentTimes`] field,
//! for every class, layer count, strategy and fusion threshold — no
//! tolerance.

use pai_core::{Architecture, ComponentTimes, PerfModel, StepTimer, WorkloadFeatures};
use pai_dag::{
    evaluate, lower, NetworkPath, OverlapStrategy, StepTimeBackend, StepTimeEngine, DEFAULT_LAYERS,
};
use pai_hw::{Bytes, Flops};
use pai_trace::{Population, PopulationConfig};
use proptest::prelude::*;

/// The repro harness's pinned seed (`pai_repro::SEED`).
const SEED: u64 = 1_905_930;

fn oracle(
    model: &PerfModel,
    job: &WorkloadFeatures,
    layers: usize,
    strategy: OverlapStrategy,
) -> ComponentTimes {
    let config = model.config();
    let step = lower::from_features(job, config, layers);
    let path = NetworkPath::for_arch(config, job.arch());
    evaluate(&step, &path, strategy).component_times()
}

fn fold(
    model: &PerfModel,
    job: &WorkloadFeatures,
    layers: usize,
    strategy: OverlapStrategy,
) -> ComponentTimes {
    StepTimeEngine::new(*model, StepTimeBackend::Dag(strategy))
        .with_layers(layers)
        .component_times(job)
}

/// The five fields as bit patterns, so `==` is bitwise equality.
fn bits(ct: &ComponentTimes) -> [u64; 5] {
    [
        ct.data_io.as_f64().to_bits(),
        ct.compute_bound.as_f64().to_bits(),
        ct.memory_bound.as_f64().to_bits(),
        ct.weight_traffic.as_f64().to_bits(),
        ct.total.as_f64().to_bits(),
    ]
}

/// Zero, or a log-uniform magnitude in `[1, 10^decades)`.
fn magnitude(decades: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), (0.0f64..decades).prop_map(|e| 10f64.powf(e)),]
}

fn job(arch: Architecture, cnodes: usize, sizes: (f64, f64, f64, f64)) -> WorkloadFeatures {
    let (input, weight, flops, mem) = sizes;
    let cnodes = if arch == Architecture::OneWorkerOneGpu {
        1
    } else {
        cnodes
    };
    WorkloadFeatures::builder(arch)
        .cnodes(cnodes)
        .batch_size(64)
        .input_bytes(Bytes::from_f64(input))
        .weight_bytes(Bytes::from_f64(weight))
        .flops(Flops::from_f64(flops))
        .mem_access_bytes(Bytes::from_f64(mem))
        .build()
}

/// Serial, WFBP, or fusion at 1 byte (a bucket per message), at a
/// fraction of `S_w`, or above `S_w` (one bucket).
fn strategy(weight: f64, pick: usize, fraction: f64) -> OverlapStrategy {
    let fused = |bytes: f64| OverlapStrategy::FusedWfbp {
        threshold: Bytes::from_f64(bytes),
    };
    match pick {
        0 => OverlapStrategy::Serial,
        1 => OverlapStrategy::Wfbp,
        2 => fused(1.0),
        3 => fused(weight * fraction),
        _ => fused(weight * 2.0 + 1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn fold_is_bitwise_the_lowered_evaluation(
        arch in 0usize..5,
        cnodes in 2usize..=256,
        layers in 1usize..=64,
        sizes in (magnitude(10.0), magnitude(11.0), magnitude(16.0), magnitude(12.0)),
        (pick, fraction) in (0usize..5, 0.0f64..1.5),
    ) {
        let model = PerfModel::paper_default();
        let job = job(Architecture::ALL[arch], cnodes, sizes);
        let s = strategy(sizes.1, pick, fraction);
        let want = oracle(&model, &job, layers, s);
        let got = fold(&model, &job, layers, s);
        prop_assert_eq!(bits(&got), bits(&want), "{:?} at {} layers under {:?}", job, layers, s);
    }
}

/// The threshold extremes reach both fusion regimes, and the fold
/// agrees with the oracle at each.
#[test]
fn fusion_extremes_issue_one_bucket_or_one_per_message() {
    let model = PerfModel::paper_default();
    let config = model.config();
    let weight = 64e6;
    for arch in Architecture::ALL.into_iter().skip(1) {
        let job = job(arch, 8, (1e6, weight, 1e12, 1e9));
        let path = NetworkPath::for_arch(config, arch);
        let step = lower::from_features(&job, config, 16);
        for (pick, transfers) in [(2, 16), (4, 1)] {
            let s = strategy(weight, pick, 0.0);
            assert_eq!(evaluate(&step, &path, s).transfers, transfers, "{arch}");
            assert_eq!(
                bits(&fold(&model, &job, 16, s)),
                bits(&oracle(&model, &job, 16, s))
            );
        }
    }
}

/// The fold prices a paper-scale population exactly as the oracle.
#[test]
#[cfg_attr(miri, ignore)]
fn fold_matches_the_oracle_on_a_paper_scale_population() {
    let config = PopulationConfig::paper_scale(2_000).expect("valid scale");
    let population = Population::builder(config)
        .seed(SEED)
        .build()
        .expect("valid config");
    let model = PerfModel::paper_default();
    for s in [
        OverlapStrategy::Serial,
        OverlapStrategy::Wfbp,
        OverlapStrategy::fused_default(),
    ] {
        let engine = StepTimeEngine::new(model, StepTimeBackend::Dag(s));
        let priced = engine.component_times_all(&population, pai_par::Threads::SERIAL);
        for (i, got) in priced.iter().enumerate() {
            let job = pai_core::Jobs::get(&population, i);
            let want = oracle(&model, &job, DEFAULT_LAYERS, s);
            assert_eq!(bits(got), bits(&want), "job {i} under {s:?}");
        }
    }
}
