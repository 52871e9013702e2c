// Per-layer measurement from outside the library: a replay of the
// strategy::run_strategy loop through the public calls it makes, with a
// span around each, and a profile of a compiled plan and of the kernels
// its conv/linear steps call.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "data/dataset.h"
#include "nn/model.h"
#include "serve/session.h"
#include "strategy/runner.h"
#include "strategy/strategy.h"
#include "util.h"

namespace perfbench {

/// Per-layer sums over one traced prune loop (seconds unless noted).
struct LoopProfile {
  double total_s = 0.0;
  double graph_build_s = 0.0;
  double score_s = 0.0;
  double select_s = 0.0;
  double certify_s = 0.0;
  double surgery_s = 0.0;
  double finetune_s = 0.0;
  double evaluate_s = 0.0;
  double flops_s = 0.0;
  int64_t scored_images = 0;
  int64_t finetune_images = 0;
  int64_t filters_removed = 0;

  double layer_sum_s() const {
    return graph_build_s + score_s + select_s + certify_s + surgery_s + finetune_s +
           evaluate_s + flops_s;
  }
};

/// Runs the same loop as strategy::run_strategy, call for call and in
/// the same order, timing each call into `trace`. Given the same model,
/// a fresh strategy of the same config and the same data, the final
/// weights are bitwise those run_strategy produces.
LoopProfile traced_prune_loop(capr::nn::Model& model, capr::strategy::PruneStrategy& strat,
                              const capr::data::Dataset& train_set,
                              const capr::data::Dataset& test_set,
                              const capr::strategy::StrategyRunConfig& cfg,
                              int64_t images_per_score, Trace& trace);

/// Timings of a compiled plan and of its kernels at the batch-8 shape.
struct PlanProfile {
  double run_us[9] = {};  // warmed run_ref, index = batch size 1..8
  double im2col_us = 0.0;  // sum over conv steps, batch 8
  double gemm_us = 0.0;    // sum over conv and linear steps, batch 8
  double resolve_ns = 0.0;  // one resolve_gemm_config call
  int64_t resolve_calls_b1 = 0;  // resolve calls in one batch-1 plan run
  double flops_per_image = 0.0;

  /// run_us interpolated at a fractional batch size in [1, 8].
  double run_us_at(double batch) const;
};

/// Profiles `session`'s plan under SerialRegionGuard (as server workers
/// run it). Per-node kernel rows, keyed by graph NodeId, go to `trace`.
PlanProfile profile_plan(const capr::serve::InferenceSession& session,
                         const capr::Tensor& batch8, double flops_per_image, Trace& trace);

/// Bitwise equality of two state dicts.
bool same_weights(const std::map<std::string, capr::Tensor>& a,
                  const std::map<std::string, capr::Tensor>& b);

}  // namespace perfbench
