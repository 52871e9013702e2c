// Activation-driven criteria: APoZ, HRank, Taylor-FO (paper Fig. 6
// baselines).
#pragma once

#include "strategy/strategy.h"

namespace capr::baselines {

/// APoZ (Hu et al., "Network Trimming", 2016 — paper ref [24]): filters
/// whose post-ReLU feature maps are mostly zero are unimportant. Score is
/// 1 - (average percentage of zeros).
class APoZStrategy final : public strategy::PruneStrategy {
 public:
  explicit APoZStrategy(int64_t images_per_class = 4, uint64_t seed = 31)
      : images_per_class_(images_per_class), seed_(seed) {}
  std::string name() const override { return "APoZ"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;

 private:
  int64_t images_per_class_;
  uint64_t seed_;
};

/// HRank (Lin et al., CVPR 2020 — paper ref [19]): filters producing
/// low-rank feature maps carry less information. Score is the average
/// numerical rank of the filter's [H, W] feature map over sample images
/// (rank via row-reduction with a relative tolerance — equivalent to the
/// SVD rank the paper computes).
class HRankStrategy final : public strategy::PruneStrategy {
 public:
  explicit HRankStrategy(int64_t images_per_class = 4, uint64_t seed = 33,
                          float rel_tol = 1e-4f)
      : images_per_class_(images_per_class), seed_(seed), rel_tol_(rel_tol) {}
  std::string name() const override { return "HRank"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;

 private:
  int64_t images_per_class_;
  uint64_t seed_;
  float rel_tol_;
};

/// First-order Taylor filter importance (Molchanov et al., ICLR 2017 /
/// CVPR 2019 — paper refs [25][28]): |sum over the feature map of
/// a * dL/da|, averaged over a scoring batch. Unlike the class-aware
/// criterion this mixes all classes into a single expectation.
class TaylorFOStrategy final : public strategy::PruneStrategy {
 public:
  explicit TaylorFOStrategy(int64_t images_per_class = 4, uint64_t seed = 35)
      : images_per_class_(images_per_class), seed_(seed) {}
  std::string name() const override { return "Taylor-FO"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;

 private:
  int64_t images_per_class_;
  uint64_t seed_;
};

/// Numerical rank of a row-major [h, w] matrix by Gaussian elimination
/// with partial pivoting; pivots below rel_tol * max|entry| count as zero.
int64_t matrix_rank(const float* data, int64_t h, int64_t w, float rel_tol);

}  // namespace capr::baselines
