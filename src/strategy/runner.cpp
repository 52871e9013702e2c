#include "strategy/runner.h"

#include <map>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "core/surgeon.h"
#include "graph/graph.h"

namespace capr::strategy {

StrategyRunResult run_strategy(nn::Model& model, PruneStrategy& strat,
                               const data::Dataset& train_set, const data::Dataset& test_set,
                               const StrategyRunConfig& cfg) {
  if (cfg.limits.max_fraction_per_iter <= 0.0f || cfg.limits.max_fraction_per_iter > 1.0f) {
    throw std::invalid_argument("run_strategy: max_fraction_per_iter must be in (0, 1]");
  }
  StrategyRunResult result;
  result.method = strat.name();
  const flops::ModelCost cost_before = flops::count(model);
  result.original_accuracy = nn::evaluate(model, test_set);
  result.stop_reason = "max iterations reached";

  const bool can_rollback = static_cast<bool>(cfg.model_factory);
  core::PruneHistory history(model);
  float accuracy = result.original_accuracy;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    const graph::ModuleGraph graph = graph::ModuleGraph::build(model);
    if (!graph.ok()) {
      throw std::logic_error("run_strategy: model graph ill-formed: " + graph.error()->format());
    }
    const StrategyContext ctx{model, graph, train_set};
    const ScoreSet scores = strat.score(ctx);
    const auto selection = select(scores, strat, cfg.limits);
    if (selection.empty()) {
      result.stop_reason = "no prunable filters remain";
      break;
    }
    if (cfg.certify) {
      const core::PruneStrategyConfig scfg = selection_config(strat, cfg.limits);
      analysis::VerifyOptions opts;
      opts.strategy = &scfg;
      analysis::require_ok(analysis::analyze_plan(model, selection, opts));
    }

    // Snapshot for rollback before mutating the model.
    std::map<std::string, Tensor> weights_snapshot;
    std::vector<std::vector<int64_t>> kept_snapshot;
    if (can_rollback) {
      weights_snapshot = model.state_dict();
      kept_snapshot = history.snapshot();
    }
    const int64_t removed = core::apply_selection(model, selection);
    history.apply(selection);

    nn::TrainConfig ft = cfg.finetune;
    ft.loader_seed = cfg.finetune.loader_seed + static_cast<uint64_t>(iter) + 1;
    nn::train(model, train_set, ft, strat.train_regularizer());
    float new_accuracy = nn::evaluate(model, test_set);
    for (int round = 0; round < cfg.recovery_rounds &&
                        result.original_accuracy - new_accuracy > cfg.max_accuracy_drop;
         ++round) {
      ft.loader_seed += 7919;
      nn::train(model, train_set, ft, strat.train_regularizer());
      new_accuracy = nn::evaluate(model, test_set);
    }

    const bool unrecovered = result.original_accuracy - new_accuracy > cfg.max_accuracy_drop;
    if (unrecovered) result.stop_reason = "accuracy drop not recovered by fine-tuning";
    if (unrecovered && can_rollback) {
      history.restore(std::move(kept_snapshot));
      nn::Model fresh = cfg.model_factory();
      const auto removed_orig = history.removed_original();
      for (size_t u = 0; u < removed_orig.size(); ++u) {
        if (!removed_orig[u].empty()) core::remove_filters(fresh, u, removed_orig[u]);
      }
      fresh.load_state_dict(weights_snapshot);
      model = std::move(fresh);
      result.stop_reason += " (iteration rolled back)";
      break;
    }

    accuracy = new_accuracy;
    result.filters_removed += removed;
    const flops::ModelCost cost_now = flops::count(model);
    const IterationRecord rec{iter,         removed, core::total_prunable_filters(model),
                              new_accuracy, cost_now.total_params, cost_now.total_flops};
    if (cfg.on_iteration) cfg.on_iteration(rec);
    result.iterations.push_back(rec);
    if (unrecovered) break;
  }

  result.iterations_run = static_cast<int>(result.iterations.size());
  result.final_accuracy = accuracy;
  result.report = flops::compare(cost_before, flops::count(model));
  return result;
}

}  // namespace capr::strategy
