// Weight-magnitude criteria (paper Fig. 6 baselines).
#pragma once

#include "strategy/strategy.h"

namespace capr::baselines {

/// L1-norm filter pruning (Li et al., "Pruning Filters for Efficient
/// ConvNets", ICLR 2017 — paper ref [23]): importance of a filter is the
/// sum of absolute values of its weights.
class L1Strategy final : public strategy::PruneStrategy {
 public:
  L1Strategy() = default;
  std::string name() const override { return "L1"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
};

/// L2 (sum of square roots in [13]'s terminology normalised to the
/// common L2 form) filter norm; used as the in-group norm by DepGraph.
class L2Strategy final : public strategy::PruneStrategy {
 public:
  L2Strategy() = default;
  std::string name() const override { return "L2"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
};

/// DepGraph (Fang et al., CVPR 2023 — paper ref [13]): group pruning on
/// the channel-dependency graph. With full grouping the importance of
/// filter c aggregates the norms of ALL coupled parameters — the conv's
/// out-channel, the following BatchNorm's affine pair, and every
/// consumer's in-channel slice. With no grouping only the producing
/// conv's out-channel norm is used.
class DepGraphStrategy final : public strategy::PruneStrategy {
 public:
  explicit DepGraphStrategy(bool full_grouping) : full_grouping_(full_grouping) {}
  std::string name() const override {
    return full_grouping_ ? "DepGraph-FG" : "DepGraph-NG";
  }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;

 private:
  bool full_grouping_;
};

}  // namespace capr::baselines
