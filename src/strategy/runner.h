// The iterative prune/fine-tune driver every pruning method runs under
// (paper Fig. 5):
//
//   score the graph's prunable groups -> select through the shared
//   engine -> certify the plan with the static analyzer -> apply the
//   surgery -> fine-tune (with the strategy's regularizer), plus up to
//   `recovery_rounds` extra fine-tunes while the drop bound is violated
//   -> stop when nothing is selectable, the accuracy drop is
//   unrecovered, or the iteration budget is exhausted.
//
// The class-aware method, every baseline, the figure benches and the
// tournament all run this one loop, so "apples-to-apples" is
// structural: one loop, one selection engine, one certification path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "flops/flops.h"
#include "nn/trainer.h"
#include "strategy/strategy.h"

namespace capr::strategy {

/// One kept iteration, measured after its fine-tuning.
struct IterationRecord {
  int iteration = 0;
  int64_t filters_removed = 0;
  int64_t filters_remaining = 0;
  float accuracy_after_finetune = 0.0f;
  int64_t params = 0;
  int64_t flops = 0;
};

struct StrategyRunConfig {
  /// Caps and floors every selection runs under.
  core::SelectionLimits limits{};
  int max_iterations = 20;
  /// Stop when (original accuracy - fine-tuned accuracy) exceeds this.
  float max_accuracy_drop = 0.02f;
  /// Fine-tuning schedule after every pruning iteration; iteration i
  /// uses loader_seed + i + 1.
  nn::TrainConfig finetune{};
  /// Extra fine-tunes (loader_seed += 7919 each) spent while the drop
  /// bound is still violated, before declaring the iteration
  /// unrecoverable. The paper fine-tunes "for up to 130 epochs":
  /// recovery effort scales with need.
  int recovery_rounds = 0;
  /// Certify every selection with analysis::require_ok before surgery.
  /// Independent of checked mode — the tournament always certifies.
  bool certify = true;
  /// Optional observer invoked after each kept iteration (also the
  /// failing one when it is not rolled back).
  std::function<void(const IterationRecord&)> on_iteration;
  /// Optional factory returning a fresh, unpruned copy of the model
  /// architecture (same builder, same init config). When set, an
  /// iteration whose accuracy cannot be recovered is ROLLED BACK: the
  /// pre-iteration model is rebuilt from the prune history plus a weight
  /// snapshot, so the result is the last model that satisfied the drop
  /// bound — the operating point the paper's tables quote. A rolled-back
  /// iteration is neither recorded nor passed to on_iteration. Without a
  /// factory the degraded model is kept.
  std::function<nn::Model()> model_factory;
};

struct StrategyRunResult {
  std::string method;
  float original_accuracy = 0.0f;
  float final_accuracy = 0.0f;
  flops::PruningReport report;
  /// Kept iterations (iterations.size()) and the filters they removed.
  int iterations_run = 0;
  int64_t filters_removed = 0;
  std::vector<IterationRecord> iterations;
  std::string stop_reason;
};

/// Prunes `model` in place with `strat`. `train_set` feeds scoring and
/// fine-tuning; `test_set` drives the stop rule. Throws
/// std::invalid_argument on out-of-range limits (before any training)
/// and analysis::AnalysisError when certification rejects a plan.
StrategyRunResult run_strategy(nn::Model& model, PruneStrategy& strat,
                               const data::Dataset& train_set, const data::Dataset& test_set,
                               const StrategyRunConfig& cfg);

}  // namespace capr::strategy
