#include "core/strategy.h"

#include <gtest/gtest.h>

namespace capr::core {
namespace {

/// Builds an ImportanceResult with explicit total scores.
ImportanceResult make_scores(std::vector<std::vector<float>> totals, int64_t num_classes) {
  ImportanceResult res;
  res.num_classes = num_classes;
  for (size_t u = 0; u < totals.size(); ++u) {
    UnitScores s;
    s.unit_name = "u";
    s.unit_name += std::to_string(u);
    s.unit_index = u;
    s.total = std::move(totals[u]);
    res.units.push_back(std::move(s));
  }
  return res;
}

std::vector<int64_t> filters_of(const std::vector<UnitSelection>& sel, size_t unit) {
  for (const auto& s : sel) {
    if (s.unit_index == unit) return s.filters;
  }
  return {};
}

TEST(StrategyTest, EffectiveThresholdDefaultsToPaperRule) {
  PruneStrategyConfig cfg;
  EXPECT_FLOAT_EQ(effective_threshold(cfg, 10), 3.0f);   // CIFAR-10 -> 3
  EXPECT_FLOAT_EQ(effective_threshold(cfg, 100), 30.0f);  // CIFAR-100 -> 30
  cfg.score_threshold = 5.0f;
  EXPECT_FLOAT_EQ(effective_threshold(cfg, 10), 5.0f);
}

TEST(StrategyTest, ThresholdModeSelectsBelowThreshold) {
  const auto scores = make_scores({{0.5f, 4.0f, 2.9f, 3.0f}, {9.0f, 1.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kThreshold;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  EXPECT_EQ(filters_of(sel, 0), (std::vector<int64_t>{0, 2}));  // 0.5 and 2.9 < 3
  EXPECT_EQ(filters_of(sel, 1), (std::vector<int64_t>{1}));
}

TEST(StrategyTest, PercentageModeIgnoresThreshold) {
  // 10 filters, 20% cap -> exactly the 2 lowest, regardless of scores.
  const auto scores = make_scores({{9, 8, 7, 6, 5, 4.5f, 4.2f, 4.1f, 4.05f, 4.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kPercentage;
  cfg.max_fraction_per_iter = 0.2f;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  EXPECT_EQ(selection_size(sel), 2);
  EXPECT_EQ(filters_of(sel, 0), (std::vector<int64_t>{8, 9}));
}

TEST(StrategyTest, BothModeAppliesThresholdThenCap) {
  // Five filters below threshold 3, but the 40% cap only allows 2.
  const auto scores = make_scores({{0.1f, 0.2f, 0.3f, 0.4f, 0.5f}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kBoth;
  cfg.max_fraction_per_iter = 0.4f;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  EXPECT_EQ(selection_size(sel), 2);
  EXPECT_EQ(filters_of(sel, 0), (std::vector<int64_t>{0, 1}));  // lowest first
}

TEST(StrategyTest, BothModeThresholdLimitsBeforeCap) {
  // Only one filter below threshold although the cap would allow more.
  const auto scores = make_scores({{0.1f, 5, 6, 7, 8, 9, 9, 9, 9, 9}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kBoth;
  cfg.max_fraction_per_iter = 0.5f;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  EXPECT_EQ(selection_size(sel), 1);
}

TEST(StrategyTest, MinFiltersFloorProtectsSmallLayers) {
  const auto scores = make_scores({{0.1f, 0.2f, 0.3f}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kThreshold;
  cfg.min_filters_per_layer = 2;
  const auto sel = select_filters(scores, cfg);
  // Only 1 of the 3 may go even though all are below threshold.
  EXPECT_EQ(selection_size(sel), 1);
  EXPECT_EQ(filters_of(sel, 0), (std::vector<int64_t>{0}));
}

TEST(StrategyTest, FloorCanForbidAllPruning) {
  const auto scores = make_scores({{0.1f, 0.2f}}, 10);
  PruneStrategyConfig cfg;
  cfg.min_filters_per_layer = 2;
  EXPECT_TRUE(select_filters(scores, cfg).empty());
}

TEST(StrategyTest, HighScoresYieldEmptySelection) {
  const auto scores = make_scores({{9.0f, 9.5f, 10.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.min_filters_per_layer = 1;
  EXPECT_TRUE(select_filters(scores, cfg).empty());
}

TEST(StrategyTest, PerLayerCapLimitsSingleLayerDamage) {
  // 10 filters all below threshold; a 0.3 layer cap allows only 3.
  const auto scores = make_scores({{0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f, 0.7f, 0.8f,
                                    0.9f, 1.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kThreshold;
  cfg.max_layer_fraction_per_iter = 0.3f;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  EXPECT_EQ(selection_size(sel), 3);
  EXPECT_EQ(filters_of(sel, 0), (std::vector<int64_t>{0, 1, 2}));
}

TEST(StrategyTest, InvalidLayerFractionThrows) {
  const auto scores = make_scores({{1.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.max_layer_fraction_per_iter = 0.0f;
  EXPECT_THROW(select_filters(scores, cfg), std::invalid_argument);
}

TEST(StrategyTest, SelectionsAreSortedUniquePerUnit) {
  const auto scores = make_scores({{0.3f, 0.1f, 0.2f, 9, 9}, {0.1f, 9, 9}}, 10);
  PruneStrategyConfig cfg;
  cfg.mode = StrategyMode::kBoth;
  cfg.max_fraction_per_iter = 1.0f;
  cfg.max_layer_fraction_per_iter = 1.0f;
  cfg.min_filters_per_layer = 1;
  const auto sel = select_filters(scores, cfg);
  const auto f0 = filters_of(sel, 0);
  EXPECT_TRUE(std::is_sorted(f0.begin(), f0.end()));
  EXPECT_EQ(f0, (std::vector<int64_t>{0, 1, 2}));
}

TEST(StrategyTest, InvalidFractionThrows) {
  const auto scores = make_scores({{1.0f}}, 10);
  PruneStrategyConfig cfg;
  cfg.max_fraction_per_iter = 0.0f;
  EXPECT_THROW(select_filters(scores, cfg), std::invalid_argument);
  cfg.max_fraction_per_iter = 1.5f;
  EXPECT_THROW(select_filters(scores, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace capr::core
