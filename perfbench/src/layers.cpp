#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "analysis/analyzer.h"
#include "compile/plan.h"
#include "core/surgeon.h"
#include "flops/flops.h"
#include "graph/graph.h"
#include "nn/trainer.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace perfbench {
namespace {

using namespace capr;

/// Calls fn inside a span named `name` and adds its wall time to `acc`.
template <class F>
auto timed(Trace& trace, const char* name, double& acc, F&& fn) {
  const int64_t id = trace.begin(name);
  const Clock::time_point t = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += seconds_since(t);
    trace.end(id);
  } else {
    auto value = fn();
    acc += seconds_since(t);
    trace.end(id);
    return value;
  }
}

/// Median wall time of fn in microseconds over at least `min_reps`
/// calls and about `budget_s` seconds, after one untimed call.
template <class F>
double median_us(F&& fn, int min_reps, double budget_s) {
  fn();
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(us.size()) < min_reps || seconds_since(start) < budget_s) {
    const Clock::time_point t = Clock::now();
    fn();
    us.push_back(us_between(t, Clock::now()));
    if (us.size() >= 2000) break;
  }
  return median(std::move(us));
}

Tensor first_images(const Tensor& batch, int64_t n) {
  const Shape& s = batch.shape();
  Tensor out({n, s[1], s[2], s[3]});
  std::memcpy(out.data(), batch.data(), static_cast<size_t>(out.numel()) * sizeof(float));
  return out;
}

}  // namespace

LoopProfile traced_prune_loop(nn::Model& model, strategy::PruneStrategy& strat,
                              const data::Dataset& train_set, const data::Dataset& test_set,
                              const strategy::StrategyRunConfig& cfg, int64_t images_per_score,
                              Trace& trace) {
  if (cfg.on_iteration) {
    throw std::invalid_argument("traced_prune_loop: on_iteration observers are not replayed");
  }
  LoopProfile p;
  const Clock::time_point start = Clock::now();
  const int64_t root = trace.begin("strategy.run_strategy");
  const flops::ModelCost before =
      timed(trace, "flops.count", p.flops_s, [&] { return flops::count(model); });
  const float original =
      timed(trace, "nn.evaluate", p.evaluate_s, [&] { return nn::evaluate(model, test_set); });
  float accuracy = original;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    const graph::ModuleGraph graph = timed(trace, "graph.build", p.graph_build_s,
                                           [&] { return graph::ModuleGraph::build(model); });
    if (!graph.ok()) throw std::logic_error("traced_prune_loop: model graph ill-formed");
    const strategy::StrategyContext ctx{model, graph, train_set};
    const strategy::ScoreSet scores =
        timed(trace, "strategy.score", p.score_s, [&] { return strat.score(ctx); });
    p.scored_images += images_per_score;
    const auto selection = timed(trace, "strategy.select", p.select_s,
                                 [&] { return strategy::select(scores, strat, cfg.limits); });
    if (selection.empty()) break;
    if (cfg.certify) {
      timed(trace, "analysis.certify", p.certify_s, [&] {
        const core::PruneStrategyConfig scfg = strategy::selection_config(strat, cfg.limits);
        analysis::VerifyOptions opts;
        opts.strategy = &scfg;
        analysis::require_ok(analysis::analyze_plan(model, selection, opts));
      });
    }
    p.filters_removed += timed(trace, "core.apply_selection", p.surgery_s,
                               [&] { return core::apply_selection(model, selection); });
    nn::TrainConfig ft = cfg.finetune;
    ft.loader_seed = cfg.finetune.loader_seed + static_cast<uint64_t>(iter) + 1;
    timed(trace, "nn.train", p.finetune_s,
          [&] { nn::train(model, train_set, ft, strat.train_regularizer()); });
    p.finetune_images += train_set.size() * ft.epochs;
    accuracy =
        timed(trace, "nn.evaluate", p.evaluate_s, [&] { return nn::evaluate(model, test_set); });
    if (original - accuracy > cfg.max_accuracy_drop) break;
  }
  timed(trace, "flops.count", p.flops_s,
        [&] { (void)flops::compare(before, flops::count(model)); });
  trace.end(root);
  p.total_s = seconds_since(start);
  return p;
}

double PlanProfile::run_us_at(double batch) const {
  const double b = std::clamp(batch, 1.0, 8.0);
  const int lo = static_cast<int>(std::floor(b));
  const int hi = std::min(8, lo + 1);
  return run_us[lo] + (b - lo) * (run_us[hi] - run_us[lo]);
}

PlanProfile profile_plan(const serve::InferenceSession& session, const Tensor& batch8,
                         double flops_per_image, Trace& trace) {
  const compile::ExecutionPlan* plan = session.plan();
  if (plan == nullptr) throw std::invalid_argument("profile_plan: session is not compiled");
  PlanProfile p;
  p.flops_per_image = flops_per_image;
  const SerialRegionGuard serial;
  nn::InferScratch scratch;
  session.warm(scratch, 8);
  for (int64_t b = 1; b <= 8; ++b) {
    const Tensor batch = first_images(batch8, b);
    p.run_us[b] = median_us([&] { (void)session.run_ref(batch, scratch); }, 20, 0.12);
  }

  // Each conv/linear step replayed at its batch-8 shape through the
  // public kernel entry points the plan calls: im2col_packed +
  // gemm_tiled_packed per image for a conv, gemm_tiled_packed_nt for a
  // linear layer.
  Rng rng(5);
  const bool tiled = gemm_kernel() == GemmKernel::kTiled;
  for (const compile::Step& s : plan->steps()) {
    const graph::NodeId node = s.nodes.empty() ? graph::kNoNode : s.nodes.front();
    GemmEpilogue ep;
    ep.act = static_cast<int>(s.act);
    ep.alpha = s.alpha;
    double im2col_us = 0.0;
    double gemm_us = 0.0;
    int64_t m = 0, k = 0, n = 0;
    if (s.kind == compile::StepKind::kConv && tiled && s.prepacked) {
      const ConvGeom& g = s.geom;
      m = s.out_channels;
      k = g.col_rows();
      n = g.col_cols();
      Tensor image({g.in_channels, g.in_h, g.in_w});
      rng.fill_normal(image, 0.0f, 1.0f);
      std::vector<float> panels(static_cast<size_t>(packed_b_floats(k, n)));
      std::vector<float> out(static_cast<size_t>(m * n));
      ep.bias_row = s.bias.empty() ? nullptr : s.bias.data();
      im2col_us = 8.0 * median_us([&] { (void)im2col_packed(image.data(), g, panels.data()); },
                                  20, 0.02);
      gemm_us = 8.0 * median_us(
                          [&] { gemm_tiled_packed(s.packed_w, panels.data(), out.data(), n, ep); },
                          20, 0.03);
    } else if (s.kind == compile::StepKind::kLinear && tiled && s.packed_in.finite) {
      m = 8;
      k = s.packed_in.depth;
      n = s.packed_in.cols;
      Tensor in({m, k});
      rng.fill_normal(in, 0.0f, 1.0f);
      std::vector<float> out(static_cast<size_t>(m * n));
      GemmScratch gs;
      ep.bias_col = s.bias.empty() ? nullptr : s.bias.data();
      gemm_us = median_us(
          [&] { gemm_tiled_packed_nt(in.data(), s.packed_in, out.data(), m, ep, &gs); }, 20,
          0.02);
      ++p.resolve_calls_b1;
      volatile int64_t sink = 0;
      const int64_t calls = 20000;
      const double us = median_us(
          [&] {
            for (int64_t i = 0; i < calls; ++i) {
              sink = sink + resolve_gemm_config(GemmVariant::kNT, 1, k, n).mc;
            }
          },
          5, 0.02);
      p.resolve_ns = us * 1e3 / static_cast<double>(calls);
    } else {
      continue;
    }
    p.im2col_us += im2col_us;
    p.gemm_us += gemm_us;
    trace.add_row("{\"node\": " + std::to_string(node) + ", \"kind\": " +
                  json_string(compile::to_string(s.kind)) + ", \"M\": " + std::to_string(m) +
                  ", \"K\": " + std::to_string(k) + ", \"N\": " + std::to_string(n) +
                  ", \"im2col_us_b8\": " + json_number(im2col_us) +
                  ", \"gemm_us_b8\": " + json_number(gemm_us) + "}");
  }
  return p;
}

bool same_weights(const std::map<std::string, Tensor>& a, const std::map<std::string, Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, t] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.shape() != t.shape() ||
        std::memcmp(it->second.data(), t.data(), static_cast<size_t>(t.numel()) * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
