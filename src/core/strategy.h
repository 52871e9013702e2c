// Filter selection strategy (paper Section III-C and Table II).
//
// Three modes:
//  - kThreshold:  remove every filter whose total score is below the
//    score threshold (paper: 3 for 10 classes, 30 for 100 classes).
//  - kPercentage: remove the globally lowest-scoring fraction of filters.
//  - kBoth (paper default): filters below the threshold, capped at the
//    per-iteration percentage (lowest scores evicted first).
// A per-layer floor (min_filters_per_layer) guarantees surgery legality.
//
// The selection machinery is implemented ONCE (select_scored): the
// class-aware scores (select_filters) and every graph-driven
// PruneStrategy (src/strategy) feed their scores through the same
// engine, so every method runs under identical cap/floor protections.
#pragma once

#include <cstdint>
#include <vector>

#include "core/importance.h"

namespace capr::core {

enum class StrategyMode { kThreshold, kPercentage, kBoth };

/// The protection knobs every selection — class-aware, baseline or
/// tournament entrant — runs under. Shared by PruneStrategyConfig and
/// strategy::StrategyRunConfig so no method can accidentally run with
/// different caps or floors than its competitors.
struct SelectionLimits {
  /// Per-iteration cap as a fraction of currently remaining filters,
  /// network-wide (the paper's "no more than 10% per iteration").
  float max_fraction_per_iter = 0.10f;
  /// Per-iteration cap within a single layer, as a fraction of that
  /// layer's current filters. Prevents one iteration from gutting a thin
  /// layer down to the floor before fine-tuning can react. 1.0 disables.
  float max_layer_fraction_per_iter = 0.5f;
  /// Never shrink a layer below this many filters.
  int64_t min_filters_per_layer = 2;
};

struct PruneStrategyConfig : SelectionLimits {
  StrategyMode mode = StrategyMode::kBoth;
  /// Score threshold; < 0 selects the paper's rule of thumb
  /// 0.3 * num_classes (3 for CIFAR-10, 30 for CIFAR-100).
  float score_threshold = -1.0f;
};

/// Filters selected for removal in one unit.
struct UnitSelection {
  size_t unit_index = 0;
  std::vector<int64_t> filters;
};

/// One unit's per-filter scores as the selection engine consumes them
/// (higher = more important). `unit_index` is the index the emitted
/// UnitSelection carries — the surgeon's unit space.
struct ScoredUnit {
  size_t unit_index = 0;
  std::vector<float> scores;
};

/// The single selection engine: applies mode, threshold, per-layer floor
/// and caps, and the global percentage cap to the given scores.
/// Selections come back grouped per unit, filters sorted ascending.
std::vector<UnitSelection> select_scored(const std::vector<ScoredUnit>& units,
                                         const PruneStrategyConfig& cfg, int64_t num_classes);

/// Applies the strategy to an importance result. Selections respect the
/// per-layer floor and, in capped modes, the global percentage limit.
/// Thin wrapper over select_scored.
std::vector<UnitSelection> select_filters(const ImportanceResult& scores,
                                          const PruneStrategyConfig& cfg);

/// Effective threshold: cfg.score_threshold, or the paper's default rule
/// when negative.
float effective_threshold(const PruneStrategyConfig& cfg, int64_t num_classes);

/// Total number of filters selected across units.
int64_t selection_size(const std::vector<UnitSelection>& sel);

}  // namespace capr::core
