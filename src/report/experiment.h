// Shared experiment harness used by every bench binary.
//
// The paper's experiments (A100, CIFAR, full-width nets, 130-epoch
// fine-tuning) are re-run here at a reduced scale that preserves their
// structure. The scale is selected by the CAPR_SCALE environment
// variable: "micro" (default, minutes on one core), "small", or "full"
// (paper geometry; not expected to be feasible on a laptop-class host).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/model.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

namespace capr::report {

struct ExperimentScale {
  std::string name = "micro";
  int64_t image_size = 12;
  float width_mult = 0.25f;
  int64_t train_per_class_c10 = 32;
  int64_t test_per_class_c10 = 16;
  int64_t train_per_class_c100 = 8;
  int64_t test_per_class_c100 = 4;
  int pretrain_epochs = 8;
  int finetune_epochs = 2;
  int recovery_rounds = 2;
  int max_iterations = 8;
  int64_t batch_size = 32;
  int64_t images_per_class_scoring = 6;
  /// Per-iteration pruning caps (paper: "no more than 10%").
  float max_fraction_per_iter = 0.10f;
  float max_layer_fraction_per_iter = 0.34f;
  float max_accuracy_drop = 0.08f;
  /// Synthetic-data difficulty: higher noise/jitter keeps the trained
  /// network off the 100%-accuracy plateau so Taylor gradients stay alive.
  float noise_stddev = 0.35f;
  float jitter = 0.5f;
  /// Importance binarisation (Eq. 5). Reduced scales use the adaptive
  /// quantile rule; the full scale uses the paper's absolute threshold.
  core::TauMode tau_mode = core::TauMode::kQuantile;
  float tau_quantile = 0.9f;
  float tau = 1e-12f;
};

/// Scale selected by $CAPR_SCALE (micro | small | full); micro if unset.
ExperimentScale scale_from_env();

/// Tiny scale for --smoke runs: just enough work to prove the binary
/// executes end to end (CI compiles AND runs every bench this way).
ExperimentScale smoke_scale();

/// Command-line flags shared by every bench binary.
struct BenchArgs {
  bool smoke = false;        // --smoke: run the smoke_scale() workload cut
  std::string out;           // --out FILE: result path (benches that emit files)
};

/// Parses --smoke / --out. Unknown flags are ignored (google-benchmark
/// binaries pass their own flags through). Scale selection for benches:
/// args.smoke ? smoke_scale() : scale_from_env().
BenchArgs parse_bench_args(int argc, char** argv);

/// A ready-to-prune experiment: synthetic dataset plus a model pre-trained
/// with the paper's modified cost (Eq. 1). `factory` rebuilds a fresh
/// unpruned copy of the same architecture (used for pruner rollback).
struct Workbench {
  nn::Model model;
  data::SyntheticCifar data;
  float pretrained_accuracy = 0.0f;
  std::function<nn::Model()> factory;
};

/// Builds the dataset and model for (arch, classes) at `scale`, then
/// trains with CE + lambda1*L1 + lambda2*L_orth. lambda1/lambda2 default
/// to the paper's values; pass 0 to ablate a term (Table III / Fig. 8).
///
/// Pre-trained weights are cached under ./capr_cache/ keyed by every
/// input that affects them, so repeated bench runs skip training. Set
/// CAPR_CACHE=0 to disable, or delete the directory after code changes
/// that alter training behaviour.
Workbench prepare_workbench(const std::string& arch, int64_t classes,
                            const ExperimentScale& scale, float lambda1 = 1e-4f,
                            float lambda2 = 1e-2f, uint64_t seed = 42);

/// A class-aware pruning run: the strategy (scoring, selection mode,
/// fine-tuning loss) and the driver settings run_strategy takes.
struct PrunerConfig {
  strategy::ClassAwareStrategyConfig strategy;
  strategy::StrategyRunConfig run;
};

/// Class-aware configuration matching `scale` and the paper's strategy
/// defaults (threshold 0.3*C, 10%/iteration, modified-loss fine-tuning,
/// recovery rounds). The caller sets run.model_factory for rollback.
PrunerConfig pruner_config(const ExperimentScale& scale);

/// Standard bench banner: experiment id, paper reference and scale note.
void print_banner(const std::string& experiment, const std::string& what);

}  // namespace capr::report
