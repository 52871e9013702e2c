// Criteria that pair a scoring rule with a training-time regularizer:
// SSS (scaling-factor sparsity), OrthConv (orthogonality), and the
// TPP-style trainability-preserving proxy.
#pragma once

#include <memory>

#include "core/modified_loss.h"
#include "strategy/strategy.h"

namespace capr::baselines {

/// SSS (Huang & Wang, ECCV 2018 — paper ref [27]): sparse structure
/// selection via per-structure scaling factors trained with an L1
/// sparsity term. We realise the scaling factors as the BatchNorm gammas
/// of each prunable conv (the standard scaling-factor formulation);
/// filters whose |gamma| is driven to zero are removed.
class SSSStrategy final : public strategy::PruneStrategy {
 public:
  explicit SSSStrategy(float sparsity_lambda = 1e-3f);
  std::string name() const override { return "SSS"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
  nn::Regularizer* train_regularizer() override { return reg_.get(); }

 private:
  class GammaL1 final : public nn::Regularizer {
   public:
    explicit GammaL1(float lambda) : lambda_(lambda) {}
    float apply(nn::Model& model) override;

   private:
    float lambda_;
  };
  std::unique_ptr<GammaL1> reg_;
};

/// OrthConv (Wang et al., CVPR 2020 — paper ref [31]): trains with the
/// filter-orthogonality penalty (no L1), then prunes by filter L1 norm.
/// This is the "orthogonality improves accuracy" comparator of Fig. 6.
class OrthConvStrategy final : public strategy::PruneStrategy {
 public:
  explicit OrthConvStrategy(float lambda_orth = 1e-2f);
  std::string name() const override { return "OrthConv"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
  nn::Regularizer* train_regularizer() override { return reg_.get(); }

 private:
  std::unique_ptr<core::ModifiedLoss> reg_;
};

/// TPP-style criterion (Wang & Fu, ICLR 2023 — paper ref [18]):
/// trainability-preserving pruning protects filters whose removal would
/// damage gradient flow. Proxy used here: importance of a filter is
/// ||w_f||_2 * ||dL/dw_f||_2 averaged over a scoring batch — filters
/// with both small weights and small gradient traffic are the safest to
/// remove. (The original adds a transplant regularizer; the ranking
/// behaviour is what the Fig. 6 comparison needs.)
class TPPStrategy final : public strategy::PruneStrategy {
 public:
  explicit TPPStrategy(int64_t images_per_class = 4, uint64_t seed = 37)
      : images_per_class_(images_per_class), seed_(seed) {}
  std::string name() const override { return "TPP"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;

 private:
  int64_t images_per_class_;
  uint64_t seed_;
};

}  // namespace capr::baselines
