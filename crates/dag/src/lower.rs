//! Lowering: op DAGs and feature records into [`PricedStep`]s.
//!
//! Two entry points:
//!
//! - [`from_graph`] prices a real zoo graph op by op, mirroring the
//!   Sec. II-B class model *term by term* (same link, same derating,
//!   same contention factor as [`pai_core::PerfModel`]), and extracts
//!   one gradient message per weight-gradient producer — the
//!   `grad/*/wgrad` contractions and `grad/*` embedding scatters the
//!   backward pass emits.
//! - [`from_features`] synthesizes a canonical layered step for jobs
//!   that exist only as feature records (the generated population):
//!   one I/O stage, `layers` forward stages carrying ⅓ of the
//!   computation, `layers` backward stages carrying ⅔ (the usual
//!   2:1 backward:forward cost ratio), with `S_w / layers` of
//!   gradient eligible after each backward stage.
//!
//! Both lowerings make [`OverlapStrategy::Serial`] reproduce the
//! additive `Td + Tc + Tw` exactly (up to float summation order),
//! because class stream times sum to the same per-class totals the
//! closed form charges and the serial bulk transfer is priced on the
//! same media chain with no per-message latency.
//!
//! [`OverlapStrategy::Serial`]: crate::evaluate::OverlapStrategy::Serial

use pai_core::model::GPUS_PER_SERVER;
use pai_core::{Architecture, WorkloadFeatures};
use pai_graph::{Graph, Op, OpKind};
use pai_hw::{Bytes, HardwareConfig, LinkKind, Seconds};

use crate::step::{Message, PricedStep, Task};

/// Stage count of the synthetic [`from_features`] lowering: deep
/// enough that WFBP has realistic per-layer granularity, shallow
/// enough that per-message α stays visible.
pub const DEFAULT_LAYERS: usize = 32;

/// Prices one op on its Eq. 1 resource, exactly as the closed form
/// does (same contention scaling on I/O, same efficiency derating).
fn price_op(op: &Op, config: &HardwareConfig, contention: usize) -> Task {
    let kind = op.kind();
    let class = kind.class();
    let dur = match class {
        pai_graph::OpClass::Io => config
            .link(LinkKind::Pcie)
            .transfer_time(kind.pcie_bytes().scale(contention as f64)),
        pai_graph::OpClass::ComputeBound => {
            let peak = config
                .gpu()
                .peak_flops()
                .scale(config.efficiency().compute());
            kind.flops() / peak
        }
        pai_graph::OpClass::MemoryBound => config
            .link(LinkKind::HbmMemory)
            .transfer_time(kind.mem_bytes()),
    };
    Task { class, dur }
}

/// The weight-tensor volume a backward op produces a gradient for, if
/// it is a gradient producer: the `grad/*/wgrad` contraction of a
/// dense layer (its output *is* the weight gradient) or the `grad/*`
/// scatter-update of an embedding (touched rows only).
fn gradient_payload(op: &Op) -> Option<f64> {
    let name = op.name();
    if !name.starts_with("grad/") {
        return None;
    }
    match op.kind() {
        OpKind::MatMul { m, n, dtype, .. } if name.ends_with("/wgrad") => {
            Some((m * n * dtype.size_bytes()) as f64)
        }
        OpKind::Conv2d {
            in_channels,
            out_channels,
            kernel_h,
            kernel_w,
            dtype,
            ..
        } if name.ends_with("/wgrad") => {
            Some((out_channels * in_channels * kernel_h * kernel_w * dtype.size_bytes()) as f64)
        }
        OpKind::EmbeddingUpdate { ids, dim, dtype } => {
            Some((ids * dim * dtype.size_bytes()) as f64)
        }
        _ => None,
    }
}

/// Lowers a zoo graph into a priced step for `job`'s class and scale.
///
/// The graph supplies the compute stream (its topological order) and
/// the gradient-producer structure; `job` supplies the class (media
/// path, contention) and the actual synchronization volume `S_w`,
/// which is split across producers proportionally to their weight
/// sizes. A weight-carrying job whose graph has no gradient producers
/// (inference variants, hand-built graphs) degrades to one bulk
/// message after the last task.
///
/// # Panics
///
/// Panics if the graph is cyclic — run
/// [`pai_graph::passes::validate::validate_training_graph`] first;
/// the validator reports cycles and orphaned gradients as
/// diagnostics instead.
pub fn from_graph(graph: &Graph, job: &WorkloadFeatures, config: &HardwareConfig) -> PricedStep {
    let contention = job
        .arch()
        .input_contention_factor(job.cnodes(), GPUS_PER_SERVER);
    let order = graph.topo_order();
    let mut tasks = Vec::with_capacity(order.len());
    // (task index, payload weight) of each gradient producer.
    let mut producers: Vec<(usize, f64)> = Vec::new();
    for (i, &id) in order.iter().enumerate() {
        let op = graph.node(id);
        tasks.push(price_op(op, config, contention));
        if let Some(p) = gradient_payload(op) {
            producers.push((i, p));
        }
    }
    let mut messages = Vec::with_capacity(producers.len());
    let weight_bytes = job.weight_bytes();
    if !weight_bytes.is_zero() && !job.arch().weight_media().is_empty() {
        let total: f64 = producers.iter().map(|&(_, p)| p).sum();
        if total > 0.0 {
            for &(i, p) in &producers {
                messages.push(Message {
                    after_task: i,
                    bytes: weight_bytes.scale(p / total),
                });
            }
        } else if !tasks.is_empty() {
            messages.push(Message {
                after_task: tasks.len() - 1,
                bytes: weight_bytes,
            });
        }
    }
    PricedStep {
        name: graph.name().to_string(),
        tasks,
        messages,
        weight_bytes,
    }
}

/// One stage of the [`from_features`] lowering, in stream order.
pub(crate) enum Stage {
    /// A compute-stream task.
    Task(Task),
    /// A gradient message, eligible when the task before it retires.
    Message(Bytes),
}

/// The stages [`from_features`] lowers a feature record to, priced
/// once: [`from_features`] materializes them and the feature fold
/// ([`crate::evaluate::evaluate_features`]) replays them in place, so
/// the two share every duration and the order they are visited in.
pub(crate) struct FeatureStages {
    pub(crate) layers: usize,
    data_io: Seconds,
    /// One forward layer: its compute-bound then memory-bound duration.
    forward: [Seconds; 2],
    /// One backward layer, carrying twice the forward work.
    backward: [Seconds; 2],
    /// Gradient each backward layer releases; `None` when the job
    /// synchronizes nothing.
    pub(crate) message: Option<Bytes>,
    pub(crate) weight_bytes: Bytes,
}

impl FeatureStages {
    /// Prices `job`'s stages at `layers` granularity (clamped to ≥ 1).
    #[inline]
    pub(crate) fn new(job: &WorkloadFeatures, config: &HardwareConfig, layers: usize) -> Self {
        let layers = layers.max(1);
        let contention = job
            .arch()
            .input_contention_factor(job.cnodes(), GPUS_PER_SERVER);
        let td = config
            .link(LinkKind::Pcie)
            .transfer_time(job.input_bytes().scale(contention as f64));
        let peak = config
            .gpu()
            .peak_flops()
            .scale(config.efficiency().compute());
        let tcc = job.flops() / peak;
        let tcm = config
            .link(LinkKind::HbmMemory)
            .transfer_time(job.mem_access_bytes());
        let l = layers as f64;
        let layer = |share: f64| [tcc.scale(share / (3.0 * l)), tcm.scale(share / (3.0 * l))];
        let weight_bytes = job.weight_bytes();
        let sync = !weight_bytes.is_zero() && !job.arch().weight_media().is_empty();
        FeatureStages {
            layers,
            data_io: td,
            forward: layer(1.0),
            backward: layer(2.0),
            message: sync.then(|| weight_bytes.scale(1.0 / l)),
            weight_bytes,
        }
    }

    /// Visits every stage in stream order: the I/O task, `layers`
    /// forward pairs, then `layers` backward pairs, each followed by
    /// its gradient message when the job synchronizes.
    #[inline(always)]
    pub(crate) fn replay(&self, mut visit: impl FnMut(Stage)) {
        use pai_graph::OpClass::{ComputeBound, Io, MemoryBound};
        let task = |class, dur| Stage::Task(Task { class, dur });
        visit(task(Io, self.data_io));
        for _ in 0..self.layers {
            visit(task(ComputeBound, self.forward[0]));
            visit(task(MemoryBound, self.forward[1]));
        }
        for _ in 0..self.layers {
            visit(task(ComputeBound, self.backward[0]));
            visit(task(MemoryBound, self.backward[1]));
            if let Some(bytes) = self.message {
                visit(Stage::Message(bytes));
            }
        }
    }
}

/// Synthesizes a canonical layered step from a feature record alone.
///
/// `layers` is clamped to at least 1. Stage durations are chosen so
/// the class stream times equal the closed form's `Td`, compute-bound
/// and memory-bound terms (up to float summation order): forward
/// stages carry ⅓ of each computation term, backward stages ⅔, and
/// each backward stage releases `S_w / layers` of gradient.
///
/// [`StepTimeEngine`](crate::StepTimeEngine) prices the same stages
/// without building this step; `evaluate(&from_features(..), ..)` is
/// the oracle it is tested against.
pub fn from_features(job: &WorkloadFeatures, config: &HardwareConfig, layers: usize) -> PricedStep {
    let stages = FeatureStages::new(job, config, layers);
    let mut tasks = Vec::with_capacity(1 + 4 * stages.layers);
    let mut messages = Vec::with_capacity(stages.layers);
    stages.replay(|stage| match stage {
        Stage::Task(task) => tasks.push(task),
        Stage::Message(bytes) => messages.push(Message {
            after_task: tasks.len() - 1,
            bytes,
        }),
    });
    PricedStep {
        name: format!("{}x{}", job.arch(), job.cnodes()),
        tasks,
        messages,
        weight_bytes: stages.weight_bytes,
    }
}

/// Builds the feature record of a graph as the closed form would see
/// it: the graph's own aggregate stats plus the caller's class, scale
/// and synchronization volume. The bridge both the Serial≡additive
/// property tests and the `overlap` experiment price against.
pub fn job_of_graph(
    graph: &Graph,
    arch: Architecture,
    cnodes: usize,
    batch_size: usize,
    weight_bytes: Bytes,
) -> WorkloadFeatures {
    let stats = graph.stats();
    WorkloadFeatures::builder(arch)
        .cnodes(cnodes)
        .batch_size(batch_size)
        .input_bytes(stats.input_bytes)
        .weight_bytes(weight_bytes)
        .flops(stats.flops)
        .mem_access_bytes(stats.mem_access_memory_bound)
        .build()
}

/// Relative difference helper used by the agreement tests and the
/// repro experiment: `|a − b| / max(|a|, |b|, ε)`.
pub fn rel_diff(a: Seconds, b: Seconds) -> f64 {
    let (a, b) = (a.as_f64(), b.as_f64());
    (a - b).abs() / a.abs().max(b.abs()).max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_core::PerfModel;
    use pai_graph::zoo;
    use pai_hw::Flops;

    #[test]
    fn synthetic_lowering_class_sums_match_the_closed_form() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(16)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build();
        let step = from_features(&job, m.config(), DEFAULT_LAYERS);
        let ct = m.component_times(&job);
        assert!(rel_diff(step.class_time(pai_graph::OpClass::Io), ct.data_io) < 1e-12);
        assert!(
            rel_diff(
                step.class_time(pai_graph::OpClass::ComputeBound),
                ct.compute_bound
            ) < 1e-12
        );
        assert!(
            rel_diff(
                step.class_time(pai_graph::OpClass::MemoryBound),
                ct.memory_bound
            ) < 1e-12
        );
        assert_eq!(step.messages.len(), DEFAULT_LAYERS);
        let sent: Bytes = step.messages.iter().map(|msg| msg.bytes).sum();
        assert!((sent.as_f64() - job.weight_bytes().as_f64()).abs() < 1.0);
    }

    #[test]
    fn local_jobs_synthesize_no_messages() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .weight_bytes(Bytes::from_gb(1.0))
            .flops(Flops::from_tera(1.0))
            .build();
        let step = from_features(&job, m.config(), 8);
        assert!(step.messages.is_empty());
    }

    #[test]
    fn graph_lowering_finds_gradient_producers_on_every_training_model() {
        let m = PerfModel::paper_default();
        for spec in zoo::all() {
            let cnodes = if spec.graph().name() == "speech" {
                1
            } else {
                8
            };
            let arch = if cnodes == 1 {
                Architecture::OneWorkerOneGpu
            } else {
                Architecture::AllReduceLocal
            };
            let job = job_of_graph(
                spec.graph(),
                arch,
                cnodes,
                spec.batch_size(),
                Bytes::from_mb(100.0),
            );
            let step = from_graph(spec.graph(), &job, m.config());
            assert_eq!(step.tasks.len(), spec.graph().len());
            if cnodes > 1 {
                assert!(
                    step.messages.len() > 1,
                    "{}: wgrad producers expected",
                    spec.name()
                );
                let sent: f64 = step.messages.iter().map(|msg| msg.bytes.as_f64()).sum();
                assert!(
                    (sent - job.weight_bytes().as_f64()).abs() < 1.0,
                    "{}: shares must sum to S_w",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn producerless_graph_degrades_to_one_bulk_message() {
        let m = PerfModel::paper_default();
        let serve = zoo::inference::inference_variant(&zoo::resnet50());
        let job = job_of_graph(
            serve.graph(),
            Architecture::AllReduceLocal,
            8,
            serve.batch_size(),
            Bytes::from_mb(100.0),
        );
        let step = from_graph(serve.graph(), &job, m.config());
        assert_eq!(step.messages.len(), 1);
        assert_eq!(step.messages[0].after_task, step.tasks.len() - 1);
        assert_eq!(step.messages[0].bytes, Bytes::from_mb(100.0));
    }
}
