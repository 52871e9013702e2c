#include "baselines/magnitude.h"

#include <cmath>

namespace capr::baselines {
namespace {

/// Sum over one out-channel slice of a conv weight: |w| (p=1) or w^2 (p=2).
double filter_reduce(const nn::Conv2d& conv, int64_t filter, int p) {
  const int64_t fsz = conv.in_channels() * conv.kernel() * conv.kernel();
  const float* w = conv.weight().value.data() + filter * fsz;
  double acc = 0.0;
  for (int64_t i = 0; i < fsz; ++i) {
    acc += p == 1 ? std::fabs(w[i]) : static_cast<double>(w[i]) * w[i];
  }
  return acc;
}

/// Sum over the in-channel slice `ch` of a consumer conv: w^2.
double in_channel_sq(const nn::Conv2d& conv, int64_t ch) {
  const int64_t kk = conv.kernel() * conv.kernel();
  double acc = 0.0;
  for (int64_t f = 0; f < conv.out_channels(); ++f) {
    const float* w = conv.weight().value.data() + (f * conv.in_channels() + ch) * kk;
    for (int64_t i = 0; i < kk; ++i) acc += static_cast<double>(w[i]) * w[i];
  }
  return acc;
}

/// Sum over the in-feature block of a consumer linear for channel `ch`.
double linear_block_sq(const nn::Linear& lin, int64_t ch, int64_t spatial) {
  double acc = 0.0;
  for (int64_t o = 0; o < lin.out_features(); ++o) {
    const float* w = lin.weight().value.data() + o * lin.in_features() + ch * spatial;
    for (int64_t i = 0; i < spatial; ++i) acc += static_cast<double>(w[i]) * w[i];
  }
  return acc;
}

}  // namespace

strategy::ScoreSet L1Strategy::score(const strategy::StrategyContext& ctx) {
  std::vector<std::vector<float>> out;
  for (const nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      s[static_cast<size_t>(f)] = static_cast<float>(filter_reduce(*u.conv, f, 1));
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

strategy::ScoreSet L2Strategy::score(const strategy::StrategyContext& ctx) {
  std::vector<std::vector<float>> out;
  for (const nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      s[static_cast<size_t>(f)] = static_cast<float>(std::sqrt(filter_reduce(*u.conv, f, 2)));
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

strategy::ScoreSet DepGraphStrategy::score(const strategy::StrategyContext& ctx) {
  std::vector<std::vector<float>> out;
  for (nn::PrunableUnit& u : ctx.model.units) {
    std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
    for (int64_t f = 0; f < u.conv->out_channels(); ++f) {
      double group = filter_reduce(*u.conv, f, 2);
      if (full_grouping_) {
        if (u.bn != nullptr) {
          const float g = u.bn->gamma().value[f];
          const float b = u.bn->beta().value[f];
          group += static_cast<double>(g) * g + static_cast<double>(b) * b;
        }
        for (const nn::ConsumerRef& c : u.consumers) {
          if (c.conv != nullptr) {
            group += in_channel_sq(*c.conv, f);
          } else if (c.linear != nullptr) {
            group += linear_block_sq(*c.linear, f, c.spatial);
          }
        }
      }
      s[static_cast<size_t>(f)] = static_cast<float>(std::sqrt(group));
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

}  // namespace capr::baselines
