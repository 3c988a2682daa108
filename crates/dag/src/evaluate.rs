//! The two-resource critical-path evaluator.
//!
//! One serialized compute stream, one serialized network path, and a
//! pluggable [`OverlapStrategy`] deciding when gradient bytes may
//! start crossing the wire:
//!
//! - [`OverlapStrategy::Serial`] — nothing moves until the stream
//!   drains, then the whole weight volume ships as one bulk transfer
//!   with no per-message latency. This *is* the paper's additive
//!   `Td + Tc + Tw`, reproduced from the DAG instead of the closed
//!   form (the agreement is property-tested on every zoo graph).
//! - [`OverlapStrategy::Wfbp`] — wait-free backprop: each gradient
//!   message becomes eligible the moment its producing backward op
//!   retires, and the network drains them FIFO while the stream keeps
//!   computing. Each message pays the full α–β path cost.
//! - [`OverlapStrategy::FusedWfbp`] — WFBP plus greedy size-thresholded
//!   tensor fusion: consecutive eligible messages accumulate into a
//!   bucket until it reaches the threshold, so the per-message α is
//!   paid once per bucket. A bucket is eligible when its *last*
//!   constituent's producer retires.

use std::borrow::Cow;

use pai_core::WorkloadFeatures;
use pai_graph::OpClass;
use pai_hw::{Bytes, HardwareConfig, Seconds};
use serde::{Deserialize, Serialize};

use crate::lower::{FeatureStages, Stage};
use crate::step::{arch_hops, bulk_time, message_time, Message, NetworkPath, PricedStep, Task};

/// When may gradient bytes start crossing the network?
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OverlapStrategy {
    /// No overlap: bulk-synchronous, the additive model's assumption.
    Serial,
    /// Wait-free backprop: per-layer messages, eager, FIFO.
    Wfbp,
    /// WFBP with greedy tensor fusion into `threshold`-sized buckets.
    FusedWfbp {
        /// Minimum bucket payload before it flushes (the last bucket
        /// flushes regardless).
        threshold: Bytes,
    },
}

/// The fusion threshold real frameworks default to (Horovod's
/// 64 MB fusion buffer, halved — small enough that every zoo model
/// forms multiple buckets, large enough to amortize α).
pub const DEFAULT_FUSION_THRESHOLD_MB: f64 = 32.0;

impl OverlapStrategy {
    /// [`OverlapStrategy::FusedWfbp`] at the default threshold.
    pub fn fused_default() -> Self {
        OverlapStrategy::FusedWfbp {
            threshold: Bytes::from_mb(DEFAULT_FUSION_THRESHOLD_MB),
        }
    }

    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            OverlapStrategy::Serial => "serial-dag",
            OverlapStrategy::Wfbp => "wfbp",
            OverlapStrategy::FusedWfbp { .. } => "fused-wfbp",
        }
    }
}

/// The evaluator's verdict on one step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagStepTime {
    /// Stream time of I/O-class tasks (`Td`).
    pub data_io: Seconds,
    /// Stream time of compute-bound tasks.
    pub compute_bound: Seconds,
    /// Stream time of memory-bound tasks.
    pub memory_bound: Seconds,
    /// Network busy time: what the wire actually carries (bulk
    /// transfer under `Serial`, Σ per-message α–β costs otherwise).
    pub comm_busy: Seconds,
    /// Communication time *not* hidden behind compute — the exposed
    /// remainder the step actually pays: `total − stream_length`.
    pub comm_exposed: Seconds,
    /// Step time: when both resources go idle.
    pub total: Seconds,
    /// Gradient messages the strategy saw.
    pub messages: usize,
    /// Network transfers actually issued (== `messages` without
    /// fusion; ≤ `messages` with).
    pub transfers: usize,
}

impl DagStepTime {
    /// Compute-stream length (`Td + Tc`): everything but communication.
    pub fn stream_length(&self) -> Seconds {
        self.data_io + self.compute_bound + self.memory_bound
    }

    /// Fraction of the step spent on exposed communication — the
    /// quantity the additive model claims is `Tw / (Td+Tc+Tw)`.
    pub fn comm_exposed_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.comm_exposed.as_f64() / self.total.as_f64()
        }
    }

    /// The coherent [`pai_core::ComponentTimes`] decomposition of this
    /// verdict: the three stream classes keep their Eq. 1 meaning and
    /// `weight_traffic` becomes the *exposed* communication, so the
    /// parts still sum to the total under any overlap strategy.
    pub fn component_times(&self) -> pai_core::ComponentTimes {
        pai_core::ComponentTimes {
            data_io: self.data_io,
            compute_bound: self.compute_bound,
            memory_bound: self.memory_bound,
            weight_traffic: self.comm_exposed,
            total: self.total,
        }
    }
}

/// Prices one step under `strategy`.
///
/// Deterministic: a pure fold over the step's task and message order,
/// so results are bit-identical at any thread count however callers
/// fan jobs out. One pass over the tasks retires each in order and
/// releases the messages its retirement makes eligible.
pub fn evaluate(step: &PricedStep, path: &NetworkPath, strategy: OverlapStrategy) -> DagStepTime {
    let msgs = ordered(step);
    let mut pending = msgs.iter().peekable();
    let mut stream = Stream::default();
    let mut wire = Wire::new(strategy, |bytes| path.message_time(bytes));
    for (i, &task) in step.tasks.iter().enumerate() {
        let finish = stream.retire(task);
        // Eligibility time of a message: its producer's retirement.
        while let Some(m) = pending.next_if(|m| m.after_task == i) {
            wire.push(finish, m.bytes);
        }
    }
    // A producer index past the stream never retires: eligible at 0.
    for m in pending {
        wire.push(Seconds::ZERO, m.bytes);
    }
    let network = wire.finish(stream.prefix, || path.bulk_time(step.weight_bytes));
    stream.verdict(network, step.messages.len())
}

/// Prices the [`from_features`](crate::lower::from_features) lowering
/// of `job` without building it: the same stages replayed through the
/// same running sums and network clock as [`evaluate`], so the verdict
/// is bit-identical to `evaluate(&from_features(..), &path, strategy)`
/// with no allocation. Every message carries the same bytes, so its
/// cost is priced once per job.
pub(crate) fn evaluate_features(
    job: &WorkloadFeatures,
    config: &HardwareConfig,
    layers: usize,
    strategy: OverlapStrategy,
) -> DagStepTime {
    let stages = FeatureStages::new(job, config, layers);
    let hops = || arch_hops(config, job.arch());
    let per_message = stages.message.map(|b| (b, message_time(hops(), b)));
    let mut wire = Wire::new(strategy, |bytes| match per_message {
        Some((b, cost)) if b == bytes => cost,
        _ => message_time(hops(), bytes),
    });
    let mut stream = Stream::default();
    let mut finish = Seconds::ZERO;
    stages.replay(
        #[inline(always)]
        |stage| match stage {
            Stage::Task(task) => finish = stream.retire(task),
            Stage::Message(bytes) => wire.push(finish, bytes),
        },
    );
    let network = wire.finish(stream.prefix, || bulk_time(hops(), stages.weight_bytes));
    stream.verdict(network, stages.message.map_or(0, |_| stages.layers))
}

/// The compute stream's running sums, each added in task order.
#[derive(Default)]
struct Stream {
    /// Σ durations so far: the finish time of the last retired task.
    prefix: Seconds,
    data_io: Seconds,
    compute_bound: Seconds,
    memory_bound: Seconds,
}

impl Stream {
    /// Retires `task`; returns its finish time.
    #[inline]
    fn retire(&mut self, task: Task) -> Seconds {
        self.prefix += task.dur;
        match task.class {
            OpClass::Io => self.data_io += task.dur,
            OpClass::ComputeBound => self.compute_bound += task.dur,
            OpClass::MemoryBound => self.memory_bound += task.dur,
        }
        self.prefix
    }

    /// The verdict once the network reports `(comm_busy, net_end,
    /// transfers)`.
    fn verdict(self, network: (Seconds, Seconds, usize), messages: usize) -> DagStepTime {
        let (comm_busy, net_end, transfers) = network;
        DagStepTime {
            data_io: self.data_io,
            compute_bound: self.compute_bound,
            memory_bound: self.memory_bound,
            comm_busy,
            comm_exposed: net_end - self.prefix,
            total: net_end,
            messages,
            transfers,
        }
    }
}

/// The network link: drains gradient messages FIFO in eligibility
/// order under one strategy, pricing each transfer with `cost`.
struct Wire<F> {
    strategy: OverlapStrategy,
    cost: F,
    /// When the link goes idle.
    clock: Seconds,
    busy: Seconds,
    sent: usize,
    /// The open fusion bucket: its bytes and its eligibility, which is
    /// its latest constituent's producer retirement.
    bucket: Option<(Bytes, Seconds)>,
}

impl<F: Fn(Bytes) -> Seconds> Wire<F> {
    fn new(strategy: OverlapStrategy, cost: F) -> Self {
        Wire {
            strategy,
            cost,
            clock: Seconds::ZERO,
            busy: Seconds::ZERO,
            sent: 0,
            bucket: None,
        }
    }

    /// A message of `bytes` becomes eligible at `ready`.
    #[inline]
    fn push(&mut self, ready: Seconds, bytes: Bytes) {
        match self.strategy {
            // Bulk-synchronous: nothing moves until the stream drains.
            OverlapStrategy::Serial => {}
            OverlapStrategy::Wfbp => self.send(ready, bytes),
            OverlapStrategy::FusedWfbp { threshold } => {
                let (open, open_ready) = self.bucket.unwrap_or((Bytes::ZERO, Seconds::ZERO));
                let (bucket, ready) = (open + bytes, open_ready.max(ready));
                self.bucket = if bucket >= threshold {
                    self.send(ready, bucket);
                    None
                } else {
                    Some((bucket, ready))
                };
            }
        }
    }

    #[inline]
    fn send(&mut self, ready: Seconds, bytes: Bytes) {
        let cost = (self.cost)(bytes);
        self.clock = self.clock.max(ready) + cost;
        self.busy += cost;
        self.sent += 1;
    }

    /// Closes the step once the stream drains at `stream_end`: the last
    /// bucket flushes regardless of size. Returns `(comm_busy, net_end,
    /// transfers)`.
    fn finish(
        mut self,
        stream_end: Seconds,
        bulk: impl FnOnce() -> Seconds,
    ) -> (Seconds, Seconds, usize) {
        if let OverlapStrategy::Serial = self.strategy {
            // The whole volume ships after the stream at pure bandwidth
            // cost — the additive model.
            let bulk = bulk();
            return (bulk, stream_end + bulk, usize::from(!bulk.is_zero()));
        }
        if let Some((bucket, ready)) = self.bucket.take() {
            self.send(ready, bucket);
        }
        (self.busy, stream_end.max(self.clock), self.sent)
    }
}

/// Messages in eligibility order: by producing task, then by position
/// (a stable sort, so the lowering's layer order breaks ties
/// deterministically). Both lowerings emit them in that order already,
/// so this borrows them and sorts a copy only for hand-built steps.
fn ordered(step: &PricedStep) -> Cow<'_, [Message]> {
    let msgs = &step.messages;
    if msgs.windows(2).all(|w| w[0].after_task <= w[1].after_task) {
        return Cow::Borrowed(msgs);
    }
    let mut sorted = msgs.clone();
    sorted.sort_by_key(|m| m.after_task);
    Cow::Owned(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{Message, Task};
    use pai_collectives::latency::Latency;
    use pai_graph::OpClass;
    use pai_hw::{Bandwidth, LinkKind, LinkModel};

    /// 1 GB/s effective, 1 ms per-message latency: round numbers.
    fn path() -> NetworkPath {
        NetworkPath::new(vec![(
            LinkModel::new(LinkKind::Ethernet, Bandwidth::from_gb_per_sec(1.0), 1.0),
            Latency::new(Seconds::from_millis(1.0)),
        )])
    }

    /// Two backward layers, 10 ms each; 50 MB of gradient after each.
    fn step() -> PricedStep {
        PricedStep {
            name: "toy".into(),
            tasks: vec![
                Task {
                    class: OpClass::ComputeBound,
                    dur: Seconds::from_millis(10.0),
                },
                Task {
                    class: OpClass::ComputeBound,
                    dur: Seconds::from_millis(10.0),
                },
            ],
            messages: vec![
                Message {
                    after_task: 0,
                    bytes: Bytes::from_mb(50.0),
                },
                Message {
                    after_task: 1,
                    bytes: Bytes::from_mb(50.0),
                },
            ],
            weight_bytes: Bytes::from_mb(100.0),
        }
    }

    #[test]
    fn serial_is_stream_plus_bulk() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Serial);
        // 20 ms stream + 100 ms bulk (no α).
        assert!((v.total.as_millis() - 120.0).abs() < 1e-9);
        assert!((v.comm_exposed.as_millis() - 100.0).abs() < 1e-9);
        assert_eq!(v.transfers, 1);
    }

    #[test]
    fn wfbp_hides_comm_behind_backward() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        // msg0 ready at 10 ms, done at 10+1+50 = 61; msg1 ready at 20,
        // net busy until 61, done at 61+51 = 112 > compute 20.
        assert!((v.total.as_millis() - 112.0).abs() < 1e-9);
        assert!((v.comm_exposed.as_millis() - 92.0).abs() < 1e-9);
        assert_eq!(v.transfers, 2);
        let serial = evaluate(&step(), &path(), OverlapStrategy::Serial);
        assert!(v.total < serial.total);
    }

    #[test]
    fn fusion_amortizes_latency_when_bucket_spans_both() {
        let v = evaluate(
            &step(),
            &path(),
            OverlapStrategy::FusedWfbp {
                threshold: Bytes::from_mb(80.0),
            },
        );
        // Bucket of 100 MB ready at 20 ms: 20+1+100 = 121? No: fused
        // pays α once but waits for the last producer — 20 + 101 = 121.
        // Worse than WFBP here (toy numbers make α tiny vs the wait),
        // but still one transfer.
        assert_eq!(v.transfers, 1);
        assert!((v.total.as_millis() - 121.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_wins_when_latency_dominates() {
        // 1000 tiny messages, huge α: fusion collapses 1000 α into 1.
        let tasks: Vec<Task> = (0..1000)
            .map(|_| Task {
                class: OpClass::ComputeBound,
                dur: Seconds::from_micros(1.0),
            })
            .collect();
        let messages: Vec<Message> = (0..1000)
            .map(|i| Message {
                after_task: i,
                bytes: Bytes::from_kb(1.0),
            })
            .collect();
        let s = PricedStep {
            name: "tiny".into(),
            tasks,
            messages,
            weight_bytes: Bytes::from_mb(1.0),
        };
        let p = path();
        let wfbp = evaluate(&s, &p, OverlapStrategy::Wfbp);
        let fused = evaluate(
            &s,
            &p,
            OverlapStrategy::FusedWfbp {
                threshold: Bytes::from_mb(10.0),
            },
        );
        assert_eq!(fused.transfers, 1);
        assert!(fused.total.as_f64() < wfbp.total.as_f64() / 100.0);
    }

    #[test]
    fn no_messages_means_pure_compute_under_every_strategy() {
        let s = PricedStep {
            name: "local".into(),
            tasks: vec![Task {
                class: OpClass::MemoryBound,
                dur: Seconds::from_millis(3.0),
            }],
            messages: vec![],
            weight_bytes: Bytes::ZERO,
        };
        let p = path();
        for strat in [
            OverlapStrategy::Serial,
            OverlapStrategy::Wfbp,
            OverlapStrategy::fused_default(),
        ] {
            let v = evaluate(&s, &p, strat);
            assert!((v.total.as_millis() - 3.0).abs() < 1e-12, "{strat:?}");
            assert!(v.comm_exposed.is_zero());
            assert_eq!(v.transfers, 0);
            assert_eq!(v.comm_exposed_fraction(), 0.0);
        }
    }

    #[test]
    fn component_times_decomposition_is_coherent() {
        let v = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        let ct = v.component_times();
        let sum = ct.data_io + ct.compute_bound + ct.memory_bound + ct.weight_traffic;
        assert!((sum.as_f64() - ct.total.as_f64()).abs() < 1e-12);
    }

    /// The fold's whole verdict, not only the component times, is the
    /// lowered step's: busy time, message and transfer counts included.
    #[test]
    fn feature_fold_reproduces_every_verdict_field() {
        use pai_core::{Architecture, PerfModel, WorkloadFeatures};
        use pai_hw::Flops;
        let config = *PerfModel::paper_default().config();
        let fields = |v: &DagStepTime| {
            let secs = [
                v.data_io,
                v.compute_bound,
                v.memory_bound,
                v.comm_busy,
                v.comm_exposed,
                v.total,
            ];
            (secs.map(|t| t.as_f64().to_bits()), v.messages, v.transfers)
        };
        for arch in Architecture::ALL {
            let cnodes = if arch == Architecture::OneWorkerOneGpu {
                1
            } else {
                4
            };
            let job = WorkloadFeatures::builder(arch)
                .cnodes(cnodes)
                .input_bytes(Bytes::from_mb(3.0))
                .weight_bytes(Bytes::from_mb(100.0))
                .flops(Flops::from_tera(0.1))
                .mem_access_bytes(Bytes::from_gb(1.0))
                .build();
            let path = NetworkPath::for_arch(&config, arch);
            for layers in [1, 7, 32] {
                let step = crate::lower::from_features(&job, &config, layers);
                for strategy in [
                    OverlapStrategy::Serial,
                    OverlapStrategy::Wfbp,
                    OverlapStrategy::fused_default(),
                ] {
                    let want = evaluate(&step, &path, strategy);
                    let got = evaluate_features(&job, &config, layers, strategy);
                    assert_eq!(fields(&got), fields(&want), "{arch} {layers} {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn message_order_is_by_producer_not_vec_position() {
        let mut s = step();
        s.messages.reverse(); // scrambled input order
        let v = evaluate(&s, &path(), OverlapStrategy::Wfbp);
        let w = evaluate(&step(), &path(), OverlapStrategy::Wfbp);
        assert_eq!(v.total.as_f64().to_bits(), w.total.as_f64().to_bits());
    }
}
