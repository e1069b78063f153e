//! The three workloads. Each pins every input the training step depends
//! on; the seed is the only thing a run varies.

use dcnn_collectives::{AlgoPolicy, AllreduceAlgo, OverlapMode};
use dcnn_dimd::SynthConfig;
use dcnn_dpt::DptStrategy;
use dcnn_models::resnet::ResNetConfig;
use dcnn_models::Arch;
use dcnn_tensor::layers::Module;
use dcnn_tensor::optim::{LrSchedule, SgdConfig};
use dcnn_trainer::TrainConfig;

/// How the ranks of a workload talk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Every rank is a thread of one process (in-process transport).
    Threads,
    /// Every rank is its own process; messages cross localhost TCP.
    Tcp,
}

/// The network a workload trains.
#[derive(Debug, Clone)]
pub enum Model {
    /// One of the repository's ResNet builders.
    ResNet(ResNetConfig),
    /// A small conv trunk (conv-BN-ReLU, 2×2 max pool) feeding a wide
    /// two-layer Linear head: most parameters, so most gradient bytes,
    /// sit in the first Linear layer.
    ConvFc {
        /// Input `[C, H, W]`.
        input: [usize; 3],
        /// Trunk output channels.
        trunk: usize,
        /// Hidden width of the Linear head.
        hidden: usize,
        /// Class count.
        classes: usize,
    },
}

impl Model {
    /// Build the trainable module (deterministic for a given seed).
    pub fn build(&self, seed: u64) -> Box<dyn Module> {
        match self {
            Model::ResNet(cfg) => cfg.build(seed),
            Model::ConvFc {
                input,
                trunk,
                hidden,
                classes,
            } => {
                let arch = Arch::Seq(vec![
                    Arch::conv_bn_relu(*trunk, 3, 1, 1),
                    Arch::MaxPool {
                        kernel: 2,
                        stride: 2,
                        pad: 0,
                    },
                    Arch::Flatten,
                    Arch::Fc { out: *hidden },
                    Arch::Relu,
                    Arch::Fc { out: *classes },
                ]);
                let mut shape = *input;
                let mut s = seed;
                let m = arch.build(&mut shape, &mut s);
                assert_eq!(shape, [*classes, 1, 1]);
                m
            }
        }
    }
}

/// One workload: the fabric, the model, the data and the step shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// How ranks communicate.
    pub fabric: Fabric,
    /// Ranks (learners).
    pub nodes: usize,
    /// DPT replicas per rank.
    pub gpus_per_node: usize,
    /// Images per replica per step.
    pub batch_per_gpu: usize,
    /// Epochs per job; the first is warm-up and is not timed.
    pub epochs: usize,
    /// Classes in the synthetic dataset.
    pub classes: usize,
    /// Training images per class.
    pub train_per_class: usize,
    /// Source image side before augmentation (± `hw_jitter`).
    pub base_hw: usize,
    /// Source image size jitter.
    pub hw_jitter: usize,
    /// Network input crop.
    pub crop: usize,
    /// Run the Algorithm 2 shuffle every this many epochs (0 = never).
    pub shuffle_every_epochs: usize,
    /// Algorithm 2 segment cap in bytes.
    pub shuffle_segment_bytes: usize,
    /// Constant SGD learning rate (no warm-up, no decay within a job).
    pub lr: f32,
    /// The network.
    pub model: Model,
}

/// Every workload name. `BENCHMARK.json` lists `conv-1rank` and `fc-tcp`;
/// `data-shuffle` runs by name only, because on the reference host its
/// throughput drifts past the regression bound under sustained load (see
/// README.md).
pub const NAMES: [&str; 3] = ["conv-1rank", "fc-tcp", "data-shuffle"];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        // Compute-bound single-worker baseline: two DPT replicas of the
        // scaled 3-stage ResNet, no inter-node exchange.
        "conv-1rank" => Spec {
            name: "conv-1rank",
            fabric: Fabric::Threads,
            nodes: 1,
            gpus_per_node: 2,
            batch_per_gpu: 8,
            epochs: 3,
            classes: 4,
            train_per_class: 48,
            base_hw: 32,
            hw_jitter: 0,
            crop: 32,
            shuffle_every_epochs: 0,
            shuffle_segment_bytes: 1 << 20,
            lr: 0.02,
            model: Model::ResNet(ResNetConfig::tiny(4)),
        },
        // Comm-bound: two TCP processes, one replica each, a wide Linear
        // head whose gradient is a few MiB per step.
        "fc-tcp" => Spec {
            name: "fc-tcp",
            fabric: Fabric::Tcp,
            nodes: 2,
            gpus_per_node: 1,
            batch_per_gpu: 8,
            epochs: 6,
            classes: 4,
            train_per_class: 96,
            base_hw: 16,
            hw_jitter: 0,
            crop: 16,
            shuffle_every_epochs: 0,
            shuffle_segment_bytes: 1 << 20,
            lr: 0.003,
            model: Model::ConvFc {
                input: [3, 16, 16],
                trunk: 8,
                hidden: 2048,
                classes: 4,
            },
        },
        // Data-bound: inline decode of large, size-varying source images
        // into small crops, and a multi-round Algorithm 2 shuffle every
        // epoch, feeding a tiny ResNet on two threaded ranks.
        "data-shuffle" => Spec {
            name: "data-shuffle",
            fabric: Fabric::Threads,
            nodes: 2,
            gpus_per_node: 1,
            batch_per_gpu: 8,
            epochs: 12,
            classes: 4,
            train_per_class: 96,
            base_hw: 112,
            hw_jitter: 100,
            crop: 16,
            shuffle_every_epochs: 1,
            shuffle_segment_bytes: 32 << 10,
            lr: 0.05,
            model: Model::ResNet(ResNetConfig {
                blocks: vec![1],
                base_width: 4,
                bottleneck: false,
                classes: 4,
                input: [3, 16, 16],
                imagenet_stem: false,
            }),
        },
        _ => return None,
    };
    Some(s)
}

impl Spec {
    /// Images one step consumes across all ranks.
    pub fn global_batch(&self) -> usize {
        self.batch_per_gpu * self.gpus_per_node * self.nodes
    }

    /// Training steps per epoch (the trainer's rule).
    pub fn steps_per_epoch(&self) -> usize {
        (self.classes * self.train_per_class / self.global_batch()).max(1)
    }

    /// Steps one job runs.
    pub fn steps_per_job(&self) -> usize {
        self.epochs * self.steps_per_epoch()
    }

    /// Processes one job spawns.
    pub fn processes(&self) -> usize {
        match self.fabric {
            Fabric::Threads => 1,
            Fabric::Tcp => self.nodes,
        }
    }

    /// The synthetic dataset for `seed`.
    pub fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig {
            classes: self.classes,
            train_per_class: self.train_per_class,
            val_per_class: 1,
            base_hw: self.base_hw,
            hw_jitter: self.hw_jitter,
            noise: 18.0,
            seed,
        }
    }

    /// Seed of the model factory (every replica and rank starts identical).
    pub fn model_seed(&self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 77
    }

    /// The full trainer configuration for `seed`. Every field is written
    /// out, so nothing comes from the environment or from a default that
    /// could change under the benchmark.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            nodes: self.nodes,
            gpus_per_node: self.gpus_per_node,
            batch_per_gpu: self.batch_per_gpu,
            epochs: self.epochs,
            algo: AlgoPolicy::Fixed(AllreduceAlgo::MultiColor(4)),
            strategy: DptStrategy::Optimized,
            lr: LrSchedule {
                init_lr: self.lr,
                base_lr: self.lr,
                warmup_epochs: 1.0,
                step_epochs: 100.0,
                decay: 0.1,
            },
            crop: self.crop,
            quality: 70,
            seed,
            shuffle_every_epochs: self.shuffle_every_epochs,
            validate: false,
            fp16_grads: false,
            prefetch_depth: 0,
            decode_workers: 1,
            data_service: None,
            shuffle_segment_bytes: self.shuffle_segment_bytes,
            accum_steps: 1,
            bucket_bytes: 0,
            overlap: OverlapMode::Hooked,
            shard_optim: false,
            inflight_budget_bytes: 0,
            fault: None,
            checkpoint_dir: None,
            sgd: SgdConfig {
                momentum: 0.9,
                weight_decay: 1e-4,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_steps_divide() {
        for n in NAMES {
            let s = spec(n).expect("known workload");
            assert_eq!(s.name, n);
            assert!(s.steps_per_epoch() >= 8, "{n}: too few steps per epoch");
            assert!(s.epochs >= 2, "{n}: needs a warm-up epoch and a timed one");
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn config_takes_the_seed() {
        let s = spec("conv-1rank").expect("known");
        assert_eq!(s.train_config(9).seed, 9);
        assert_eq!(s.synth(9).seed, 9);
    }
}
