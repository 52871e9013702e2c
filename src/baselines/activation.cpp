#include "baselines/activation.h"

#include <cmath>
#include <memory>
#include <vector>

#include "nn/loss.h"

namespace capr::baselines {
namespace {

struct CaptureAll {
  nn::Model& model;
  explicit CaptureAll(nn::Model& m) : model(m) {
    for (auto& u : model.units) u.score_point->instrument().capture = true;
  }
  ~CaptureAll() {
    for (auto& u : model.units) {
      u.score_point->instrument().capture = false;
      u.score_point->instrument().release_captures();
    }
  }
  CaptureAll(const CaptureAll&) = delete;
  CaptureAll& operator=(const CaptureAll&) = delete;
};

}  // namespace

int64_t matrix_rank(const float* data, int64_t h, int64_t w, float rel_tol) {
  std::vector<double> m(static_cast<size_t>(h * w));
  double max_abs = 0.0;
  for (int64_t i = 0; i < h * w; ++i) {
    m[static_cast<size_t>(i)] = data[i];
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(data[i])));
  }
  if (max_abs == 0.0) return 0;
  const double tol = static_cast<double>(rel_tol) * max_abs;
  int64_t rank = 0;
  int64_t row = 0;
  for (int64_t col = 0; col < w && row < h; ++col) {
    // Partial pivot in this column.
    int64_t pivot = -1;
    double best = tol;
    for (int64_t r = row; r < h; ++r) {
      const double v = std::fabs(m[static_cast<size_t>(r * w + col)]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (pivot < 0) continue;
    if (pivot != row) {
      for (int64_t c = 0; c < w; ++c) {
        std::swap(m[static_cast<size_t>(row * w + c)], m[static_cast<size_t>(pivot * w + c)]);
      }
    }
    const double lead = m[static_cast<size_t>(row * w + col)];
    for (int64_t r = row + 1; r < h; ++r) {
      const double factor = m[static_cast<size_t>(r * w + col)] / lead;
      if (factor == 0.0) continue;
      for (int64_t c = col; c < w; ++c) {
        m[static_cast<size_t>(r * w + c)] -= factor * m[static_cast<size_t>(row * w + c)];
      }
    }
    ++row;
    ++rank;
  }
  return rank;
}

strategy::ScoreSet APoZStrategy::score(const strategy::StrategyContext& ctx) {
  nn::Model& model = ctx.model;
  const data::Batch batch = data::balanced_sample(ctx.train_set, images_per_class_, seed_);
  CaptureAll guard(model);
  model.forward(batch.images, /*training=*/false);
  std::vector<std::vector<float>> out;
  for (auto& u : model.units) {
    const Tensor& a = u.score_point->instrument().captured_output;
    const int64_t n = a.dim(0), f = a.dim(1);
    const int64_t plane = a.numel() / (n * f);
    std::vector<float> s(static_cast<size_t>(f));
    for (int64_t filter = 0; filter < f; ++filter) {
      int64_t zeros = 0;
      for (int64_t img = 0; img < n; ++img) {
        const float* p = a.data() + (img * f + filter) * plane;
        for (int64_t k = 0; k < plane; ++k) {
          if (p[k] == 0.0f) ++zeros;
        }
      }
      const float apoz = static_cast<float>(zeros) / static_cast<float>(n * plane);
      s[static_cast<size_t>(filter)] = 1.0f - apoz;
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

strategy::ScoreSet HRankStrategy::score(const strategy::StrategyContext& ctx) {
  nn::Model& model = ctx.model;
  const data::Batch batch = data::balanced_sample(ctx.train_set, images_per_class_, seed_);
  CaptureAll guard(model);
  model.forward(batch.images, /*training=*/false);
  std::vector<std::vector<float>> out;
  for (auto& u : model.units) {
    const Tensor& a = u.score_point->instrument().captured_output;
    const int64_t n = a.dim(0), f = a.dim(1);
    if (a.rank() != 4) {
      // Rank of a scalar activation is its nonzero-ness; degenerate case.
      std::vector<float> s(static_cast<size_t>(f), 1.0f);
      out.push_back(std::move(s));
      continue;
    }
    const int64_t h = a.dim(2), w = a.dim(3);
    std::vector<float> s(static_cast<size_t>(f), 0.0f);
    for (int64_t filter = 0; filter < f; ++filter) {
      double acc = 0.0;
      for (int64_t img = 0; img < n; ++img) {
        const float* p = a.data() + (img * f + filter) * h * w;
        acc += static_cast<double>(matrix_rank(p, h, w, rel_tol_));
      }
      s[static_cast<size_t>(filter)] = static_cast<float>(acc / n);
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

strategy::ScoreSet TaylorFOStrategy::score(const strategy::StrategyContext& ctx) {
  nn::Model& model = ctx.model;
  const data::Batch batch = data::balanced_sample(ctx.train_set, images_per_class_, seed_);
  CaptureAll guard(model);
  nn::SoftmaxCrossEntropy ce;
  const Tensor logits = model.forward(batch.images, /*training=*/false);
  ce.forward(logits, batch.labels);
  model.backward(ce.backward());
  std::vector<std::vector<float>> out;
  for (auto& u : model.units) {
    const Tensor& a = u.score_point->instrument().captured_output;
    const Tensor& g = u.score_point->instrument().captured_grad;
    const int64_t n = a.dim(0), f = a.dim(1);
    const int64_t plane = a.numel() / (n * f);
    std::vector<float> s(static_cast<size_t>(f), 0.0f);
    for (int64_t filter = 0; filter < f; ++filter) {
      double acc = 0.0;
      for (int64_t img = 0; img < n; ++img) {
        const float* pa = a.data() + (img * f + filter) * plane;
        const float* pg = g.data() + (img * f + filter) * plane;
        double dot = 0.0;
        for (int64_t k = 0; k < plane; ++k) dot += static_cast<double>(pa[k]) * pg[k];
        acc += std::fabs(dot);
      }
      s[static_cast<size_t>(filter)] = static_cast<float>(acc / n);
    }
    out.push_back(std::move(s));
  }
  return strategy::admitted_scores(ctx, out);
}

}  // namespace capr::baselines
