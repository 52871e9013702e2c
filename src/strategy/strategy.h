// The graph-driven pruning strategy interface.
//
// Every pruning method — the class-aware criterion, the baseline
// criteria of Fig. 6 and the tournament competitors — is a
// PruneStrategy: it consumes the model together with its
// graph::ModuleGraph, scores each prunable CouplingGroup, and its scores
// flow through the ONE selection engine (core::select_scored) under the
// same SelectionLimits, driven by the one loop in strategy/runner.h.
//
// The graph is the source of truth for what may be pruned: groups that
// are residual-constrained or consumer-less are filtered out BEFORE
// selection, so no strategy — class-aware, baseline or tournament
// entrant — can emit a plan the analyzer would refuse.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "data/dataset.h"
#include "graph/graph.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace capr::strategy {

/// Everything a strategy may look at when scoring. The model reference
/// is mutable because data-driven scorers run forward/backward passes
/// (capture instrumentation); scoring must leave weights unmodified.
struct StrategyContext {
  nn::Model& model;
  const graph::ModuleGraph& graph;
  const data::Dataset& train_set;
};

/// Per-group scores as a strategy emits them (higher = more important).
/// `unit_index` is the index into model.units — the surgeon's unit
/// space — so selections built from these scores apply directly.
struct GroupScores {
  size_t unit_index = 0;
  std::string name;
  std::vector<float> total;
};

struct ScoreSet {
  std::vector<GroupScores> groups;
  int64_t num_classes = 0;
};

/// A pruning method: scores graph coupling groups. The selection policy
/// (mode, threshold) is part of the method; the protection limits
/// (caps, floors) are supplied by the caller so every entrant in a
/// comparison runs under identical protections.
class PruneStrategy {
 public:
  virtual ~PruneStrategy() = default;
  PruneStrategy(const PruneStrategy&) = delete;
  PruneStrategy& operator=(const PruneStrategy&) = delete;

  /// Stable method name, e.g. "class-aware" or "dependency-aware".
  virtual std::string name() const = 0;

  /// Scores every prunable coupling group of ctx.graph.
  virtual ScoreSet score(const StrategyContext& ctx) = 0;

  /// Selection mode this method prunes under. Baselines are
  /// percentage-driven; the class-aware method thresholds.
  virtual core::StrategyMode mode() const { return core::StrategyMode::kPercentage; }

  /// Score threshold for kThreshold/kBoth modes; < 0 selects the
  /// paper's 0.3 * num_classes rule.
  virtual float score_threshold() const { return -1.0f; }

  /// Regularizer applied during fine-tuning, or nullptr for plain CE.
  /// Owned by the strategy; valid until the strategy is destroyed.
  virtual nn::Regularizer* train_regularizer() { return nullptr; }

 protected:
  PruneStrategy() = default;
};

/// One prunable coupling group resolved against the surgeon's unit
/// space: the graph group, its model.units index, and the materialized
/// mutation/read handle.
struct PrunableGroup {
  size_t unit_index = 0;
  const graph::CouplingGroup* group = nullptr;
  nn::PrunableUnit unit;
};

/// The prunable groups of ctx.graph in model-unit order: every
/// model.units entry whose coupling group is neither
/// residual-constrained nor consumer-less. Entries the graph refuses
/// (hand-annotated units on constrained convs) are dropped — this is
/// the residual-constraint filter every strategy inherits.
std::vector<PrunableGroup> prunable_groups(const StrategyContext& ctx);

/// Scores for strategies that score every model.units entry
/// positionally (per_unit[u][f] for filter f of unit u): keeps the
/// entries of the groups prunable_groups admits, so such a scorer
/// inherits the residual-constraint filter. num_classes comes from
/// ctx.train_set.
ScoreSet admitted_scores(const StrategyContext& ctx,
                         const std::vector<std::vector<float>>& per_unit);

/// The selection config a strategy + limits pair implies (what the
/// engine and the analyzer certify against).
core::PruneStrategyConfig selection_config(const PruneStrategy& strat,
                                           const core::SelectionLimits& limits);

/// Runs the shared selection engine over a strategy's scores: mode and
/// threshold from the strategy, caps and floors from `limits`.
std::vector<core::UnitSelection> select(const ScoreSet& scores, const PruneStrategy& strat,
                                        const core::SelectionLimits& limits);

}  // namespace capr::strategy
