//! Reduced-scale training path for the accuracy experiments.
//!
//! Figures 2 and 6 of the paper are about *learning*: how the threshold and
//! sparsity evolve over fine-tuning epochs and what happens to task accuracy
//! once the learned thresholds prune at runtime. Those experiments need an
//! actual model trained with the soft threshold and surrogate L0 regularizer,
//! so this module wires a task descriptor to a reduced-scale
//! [`TransformerClassifier`] (same number of layers and therefore thresholds,
//! smaller widths) and runs the `leopard-core` fine-tuner on a synthetic
//! dataset derived from the task's seed.

use crate::suite::TaskDescriptor;
use leopard_core::finetune::{FinetuneConfig, FinetuneReport, Finetuner};
use leopard_core::regularizer::L0Config;
use leopard_transformer::config::ModelConfig;
use leopard_transformer::data::{TaskGenerator, TaskSpec};
use leopard_transformer::TransformerClassifier;

/// Options for the reduced-scale training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Training samples per task.
    pub train_samples: usize,
    /// Evaluation samples per task.
    pub eval_samples: usize,
    /// Fine-tuning epochs (the paper uses one to five).
    pub epochs: usize,
    /// Number of output classes of the synthetic classification task.
    pub classes: usize,
    /// Balancing factor λ of the surrogate L0 regularizer.
    pub lambda: f32,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self {
            train_samples: 32,
            eval_samples: 32,
            epochs: 5,
            classes: 3,
            lambda: 0.15,
        }
    }
}

/// Outcome of the reduced-scale training of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOutcome {
    /// Task name.
    pub name: String,
    /// The reduced-scale configuration that was trained.
    pub model_config: ModelConfig,
    /// Full fine-tuning report (epoch dynamics, thresholds, accuracies).
    pub report: FinetuneReport,
}

/// Builds the reduced-scale model and datasets for a task and runs
/// pruning-aware fine-tuning.
pub fn train_task(task: &TaskDescriptor, options: &TrainingOptions) -> TrainingOutcome {
    let config = ModelConfig::train_scale(task.family);
    let spec = TaskSpec {
        classes: options.classes,
        signal_tokens: (config.seq_len / 6).max(2),
        noise_std: 0.6,
        signal_strength: 2.5,
        seed: task.seed(),
    };
    let generator = TaskGenerator::new(config, spec);
    let train = generator.generate(options.train_samples, 1);
    let eval = generator.generate(options.eval_samples, 2);
    let mut model = TransformerClassifier::new(config, options.classes, task.seed() ^ 0xABCD);

    let finetune_config = FinetuneConfig {
        epochs: options.epochs,
        l0: L0Config {
            lambda: options.lambda,
            ..L0Config::default()
        },
        ..FinetuneConfig::default()
    };
    let report = Finetuner::new(finetune_config).run(&mut model, &train, &eval);
    TrainingOutcome {
        name: task.name.clone(),
        model_config: config,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::full_suite;

    fn quick_options() -> TrainingOptions {
        TrainingOptions {
            train_samples: 12,
            eval_samples: 12,
            epochs: 2,
            ..TrainingOptions::default()
        }
    }

    #[test]
    fn training_a_memn2n_task_produces_thresholds_and_sparsity() {
        let suite = full_suite();
        let outcome = train_task(&suite[0], &quick_options());
        assert_eq!(outcome.report.epochs.len(), 2);
        assert_eq!(
            outcome.report.thresholds.layers(),
            outcome.model_config.layers
        );
        assert!(outcome.report.pruning_stats.total_scores() > 0);
        assert!(outcome.report.pruning_rate() > 0.0);
    }

    #[test]
    fn training_is_deterministic_for_a_given_task() {
        let suite = full_suite();
        let a = train_task(&suite[3], &quick_options());
        let b = train_task(&suite[3], &quick_options());
        assert_eq!(a.report.thresholds, b.report.thresholds);
        assert_eq!(a.report.pruned_accuracy, b.report.pruned_accuracy);
    }

    #[test]
    fn different_tasks_learn_different_thresholds() {
        let suite = full_suite();
        let a = train_task(&suite[0], &quick_options());
        let b = train_task(&suite[25], &quick_options());
        assert_ne!(a.report.thresholds, b.report.thresholds);
    }

    /// One task's pinned fine-tuning numerics: per epoch the `to_bits()` of
    /// `[train_loss, mean_threshold, sparsity, eval_accuracy]`, then the
    /// final thresholds, `pruned_accuracy` and the final pruning counts.
    struct TrainingGolden {
        task: &'static str,
        heads: usize,
        epochs: [[u32; 4]; 2],
        thresholds: &'static [u32],
        pruned_accuracy: u32,
        pruned_scores: (u64, u64),
    }

    const TRAINING_GOLDENS: [TrainingGolden; 2] = [
        TrainingGolden {
            task: "MemN2N Task-1",
            heads: 1,
            epochs: [
                [0x3fe7_2d89, 0x3da0_ff1b, 0x3e88_bda1, 0x3ed5_5555],
                [0x3f46_2483, 0x3ddc_3f4d, 0x3e96_9e06, 0x3f40_0000],
            ],
            thresholds: &[0x3d62_55f0, 0x3dea_322a, 0x3e1c_b062],
            pruned_accuracy: 0x3f40_0000,
            pruned_scores: (20_736, 11_304),
        },
        TrainingGolden {
            task: "BERT-B G-QNLI",
            heads: 2,
            epochs: [
                [0x4035_7b8d, 0x3cbc_e3f6, 0x3eca_3da1, 0x3eaa_aaab],
                [0x3fb6_462b, 0x3c5a_56ca, 0x3eb6_9ed1, 0x3f40_0000],
            ],
            thresholds: &[0xbd91_1da8, 0x3dbe_fe07, 0xbc2f_e34f, 0x3d2a_8ee0],
            pruned_accuracy: 0x3f40_0000,
            pruned_scores: (55_296, 28_450),
        },
    ];

    /// Training numerics are pinned bit for bit, so a change to an op, a
    /// pullback, the tape or the fine-tuning loop that moves any result
    /// shows up here rather than only in an end-to-end digest.
    #[test]
    fn training_numerics_match_the_golden_bits() {
        let suite = full_suite();
        for golden in &TRAINING_GOLDENS {
            let task = suite
                .iter()
                .find(|t| t.name == golden.task)
                .expect("golden task is in the suite");
            let outcome = train_task(task, &quick_options());
            assert_eq!(outcome.model_config.heads, golden.heads, "{}", golden.task);
            let report = &outcome.report;
            let epochs: Vec<[u32; 4]> = report
                .epochs
                .iter()
                .map(|e| {
                    [
                        e.train_loss.to_bits(),
                        e.mean_threshold.to_bits(),
                        e.sparsity.to_bits(),
                        e.eval_accuracy.to_bits(),
                    ]
                })
                .collect();
            assert_eq!(epochs, golden.epochs, "{} epoch records", golden.task);
            let thresholds: Vec<u32> = report
                .thresholds
                .as_slice()
                .iter()
                .map(|t| t.to_bits())
                .collect();
            assert_eq!(thresholds, golden.thresholds, "{} thresholds", golden.task);
            assert_eq!(
                report.pruned_accuracy.to_bits(),
                golden.pruned_accuracy,
                "{} pruned accuracy",
                golden.task
            );
            let stats = &report.pruning_stats;
            assert_eq!(
                (stats.total_scores(), stats.pruned_scores()),
                golden.pruned_scores,
                "{} final pruning counts",
                golden.task
            );
        }
    }
}
