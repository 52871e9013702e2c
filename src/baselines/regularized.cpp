#include "baselines/regularized.h"

#include <cmath>

#include "nn/loss.h"
#include "nn/optim.h"

namespace capr::baselines {

SSSStrategy::SSSStrategy(float sparsity_lambda)
    : reg_(std::make_unique<GammaL1>(sparsity_lambda)) {}

float SSSStrategy::GammaL1::apply(nn::Model& model) {
  double penalty = 0.0;
  for (nn::PrunableUnit& u : model.units) {
    if (u.bn == nullptr) continue;
    Tensor& g = u.bn->gamma().value;
    Tensor& grad = u.bn->gamma().grad;
    for (int64_t i = 0; i < g.numel(); ++i) {
      penalty += std::fabs(g[i]);
      if (g[i] > 0.0f) {
        grad[i] += lambda_;
      } else if (g[i] < 0.0f) {
        grad[i] -= lambda_;
      }
    }
  }
  return static_cast<float>(static_cast<double>(lambda_) * penalty);
}

strategy::ScoreSet SSSStrategy::score(const strategy::StrategyContext& ctx) {
  std::vector<std::vector<float>> out;
  for (nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()), 1.0f);
    if (u.bn != nullptr) {
      for (int64_t f = 0; f < u.bn->channels(); ++f) {
        s[static_cast<size_t>(f)] = std::fabs(u.bn->gamma().value[f]);
      }
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

OrthConvStrategy::OrthConvStrategy(float lambda_orth) {
  core::ModifiedLossConfig cfg;
  cfg.lambda1 = 0.0f;  // orthogonality only
  cfg.lambda2 = lambda_orth;
  reg_ = std::make_unique<core::ModifiedLoss>(cfg);
}

strategy::ScoreSet OrthConvStrategy::score(const strategy::StrategyContext& ctx) {
  std::vector<std::vector<float>> out;
  for (const nn::PrunableUnit& u : ctx.model.units) {
    const int64_t fsz = u.conv->in_channels() * u.conv->kernel() * u.conv->kernel();
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      const float* w = u.conv->weight().value.data() + f * fsz;
      double acc = 0.0;
      for (int64_t i = 0; i < fsz; ++i) acc += std::fabs(w[i]);
      s[static_cast<size_t>(f)] = static_cast<float>(acc);
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

strategy::ScoreSet TPPStrategy::score(const strategy::StrategyContext& ctx) {
  nn::Model& model = ctx.model;
  const data::Batch batch = data::balanced_sample(ctx.train_set, images_per_class_, seed_);
  const std::vector<nn::Param*> params = model.params();
  nn::SGD::zero_grad(params);
  nn::SoftmaxCrossEntropy ce;
  const Tensor logits = model.forward(batch.images, /*training=*/false);
  ce.forward(logits, batch.labels);
  model.backward(ce.backward());

  std::vector<std::vector<float>> out;
  for (const nn::PrunableUnit& u : model.units) {
    const int64_t fsz = u.conv->in_channels() * u.conv->kernel() * u.conv->kernel();
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      const float* w = u.conv->weight().value.data() + f * fsz;
      const float* g = u.conv->weight().grad.data() + f * fsz;
      double wn = 0.0, gn = 0.0;
      for (int64_t i = 0; i < fsz; ++i) {
        wn += static_cast<double>(w[i]) * w[i];
        gn += static_cast<double>(g[i]) * g[i];
      }
      s[static_cast<size_t>(f)] = static_cast<float>(std::sqrt(wn) * std::sqrt(gn));
    }
    out.push_back(std::move(s));
  }
  nn::SGD::zero_grad(params);
  return strategy::admitted_scores(ctx, out);
}

}  // namespace capr::baselines
