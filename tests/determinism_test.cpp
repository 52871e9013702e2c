// Determinism guarantees under threading and reruns: identical conv/gemm
// outputs with 1 vs 8 workers, and identical pruning decisions
// (importance -> strategy -> surgeon) regardless of worker count, plus
// byte-identical reruns from the same seed. These pin the contract that
// the ROADMAP's parallel/batching/caching work must preserve.
#include <gtest/gtest.h>

#include <cstring>

#include "compile/compiler.h"
#include "core/importance.h"
#include "core/strategy.h"
#include "core/surgeon.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "test_util.h"
#include "verify/shape_sweep.h"

namespace capr {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(DeterminismTest, GemmIsBitwiseStableAcrossReruns) {
  const Tensor a = testing::random_tensor({17, 23}, 1);
  const Tensor b = testing::random_tensor({23, 9}, 2);
  const Tensor first = matmul(a, b);
  for (int run = 0; run < 3; ++run) {
    EXPECT_TRUE(bitwise_equal(matmul(a, b), first));
  }
}

TEST(DeterminismTest, ConvForwardAndInputGradAreBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  nn::Conv2d conv(3, 4, 3, 1, 1, true);
  Rng rng(5);
  rng.fill_uniform(conv.weight().value, -0.5f, 0.5f);
  rng.fill_uniform(conv.bias().value, -0.5f, 0.5f);
  const Tensor x = testing::random_tensor({8, 3, 7, 7}, 6);
  const Tensor go = testing::random_tensor({8, 4, 7, 7}, 7);

  set_num_threads(1);
  const Tensor y1 = conv.forward(x, true);
  const Tensor gx1 = conv.backward(go);

  set_num_threads(8);
  const Tensor y8 = conv.forward(x, true);
  const Tensor gx8 = conv.backward(go);

  // Disjoint per-image writes: bitwise, not merely close.
  EXPECT_TRUE(bitwise_equal(y8, y1));
  EXPECT_TRUE(bitwise_equal(gx8, gx1));
}

// Conv2d forward on an eligible geometry takes the direct path (planes
// + offset map), on an ineligible one im2col_packed panels; both must be
// bitwise across worker counts, and the direct one must equal the panel
// path's bits (pinned there by the differential sweep) at every count.
TEST(DeterminismTest, DirectAndPanelConvForwardAreBitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  struct Case {
    int64_t cin, cout, hw, kernel, stride, pad;
    bool direct;
  };
  const Case cases[] = {
      {8, 20, 16, 3, 1, 1, true},   // 16x16 output: direct
      {6, 20, 10, 3, 1, 1, false},  // 10x10 output: panels
  };
  for (const Case& c : cases) {
    nn::Conv2d conv(c.cin, c.cout, c.kernel, c.stride, c.pad, true);
    Rng rng(9);
    rng.fill_uniform(conv.weight().value, -0.5f, 0.5f);
    rng.fill_uniform(conv.bias().value, -0.5f, 0.5f);
    const Tensor x = testing::random_tensor({6, c.cin, c.hw, c.hw}, 10);
    const ConvGeom g{c.cin, c.hw, c.hw, c.kernel, c.kernel, c.stride, c.pad};
    ASSERT_EQ(direct_conv_eligible(g), c.direct);
    set_num_threads(1);
    const Tensor y1 = conv.forward(x, false);
    for (int threads : {2, 4}) {
      set_num_threads(threads);
      EXPECT_TRUE(bitwise_equal(conv.forward(x, false), y1))
          << (c.direct ? "direct" : "panels") << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, ConvSweepOneVsEightWorkers) {
  ThreadGuard guard;
  verify::SweepOptions opts;
  opts.configs = 50;
  opts.threads_high = 8;
  const verify::SweepResult r = verify::sweep_conv2d_determinism(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(DeterminismTest, TiledGemmIsBitwiseAcrossThreadCounts) {
  // Big enough that the tiled path actually threads (2*M*K*N >= 2^23
  // and several row blocks), with remainders in every dimension. Each C
  // element is accumulated in fixed k-order regardless of workers.
  ThreadGuard guard;
  const Tensor a = testing::random_tensor({200, 300}, 31);
  const Tensor b = testing::random_tensor({300, 190}, 32);
  Tensor c1({200, 190});
  set_num_threads(1);
  gemm_tiled(a.data(), b.data(), c1.data(), 200, 300, 190);
  for (int workers : {2, 3, 8}) {
    set_num_threads(workers);
    Tensor cn({200, 190});
    gemm_tiled(a.data(), b.data(), cn.data(), 200, 300, 190);
    EXPECT_TRUE(bitwise_equal(cn, c1)) << workers << " workers";
  }
}

TEST(DeterminismTest, ThreadCountChangeMidSweepDoesNotChangeResults) {
  // Regression: calling set_num_threads between (or during) sweeps must
  // not alter any tiled result — thread count only partitions row
  // blocks, never the per-element accumulation order.
  ThreadGuard guard;
  const Tensor a = testing::random_tensor({150, 280}, 33);
  const Tensor b = testing::random_tensor({280, 170}, 34);
  set_num_threads(1);
  Tensor want({150, 170});
  gemm_tiled(a.data(), b.data(), want.data(), 150, 280, 170);

  const int plan[] = {4, 1, 6, 2, 8};
  for (size_t step = 0; step < sizeof(plan) / sizeof(plan[0]); ++step) {
    set_num_threads(plan[step]);
    Tensor got({150, 170});
    gemm_tiled(a.data(), b.data(), got.data(), 150, 280, 170);
    EXPECT_TRUE(bitwise_equal(got, want)) << "step " << step << " (" << plan[step]
                                          << " workers)";
  }
}

TEST(DeterminismTest, TiledRemainderSweepIsCleanUnderManyThreads) {
  // The full remainder grid under a high worker count: small shapes stay
  // serial (below the FLOP cut), the decision is shape-only, and every
  // shape still matches the reference kernel.
  ThreadGuard guard;
  set_num_threads(8);
  const verify::SweepResult r = verify::sweep_gemm_tiled(verify::remainder_gemm_shapes());
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(DeterminismTest, CompiledPlanIsBitwiseAcrossThreadCounts) {
  // The compiled ExecutionPlan threads over the batch dimension inside
  // each conv step; per-sample writes are disjoint and each GEMM output
  // element accumulates in fixed k-order, so 1 worker vs N workers must
  // be bitwise — for both the exact plan and the BN-folded plan (folding
  // changes the numbers once at compile time, not per-run).
  ThreadGuard guard;
  const GemmKernelScope scope(GemmKernel::kTiled);
  const nn::Model model = models::make_model("resnet20", [] {
    models::BuildConfig cfg;
    cfg.num_classes = 4;
    cfg.input_size = 8;
    cfg.width_mult = 0.5f;
    return cfg;
  }());
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  for (const bool fold : {false, true}) {
    compile::CompileOptions opts;
    opts.fold_batchnorm = fold;
    const compile::CompileResult result = compile::compile(g, opts);
    ASSERT_NE(result.plan, nullptr);
    const Tensor x = testing::random_tensor({6, 3, 8, 8}, 41);

    set_num_threads(1);
    nn::InferScratch s1;
    const Tensor y1 = result.plan->run(x, s1);
    for (int workers : {2, 4, 8}) {
      set_num_threads(workers);
      nn::InferScratch sn;
      const Tensor yn = result.plan->run(x, sn);
      EXPECT_TRUE(bitwise_equal(yn, y1))
          << workers << " workers, fold_batchnorm=" << fold;
    }
  }
}

// ---- pruning decisions ------------------------------------------------------

struct PruneRun {
  std::vector<core::UnitSelection> selection;
  std::map<std::string, Tensor> state;  // post-surgery weights
};

PruneRun run_pruning(int threads) {
  set_num_threads(threads);
  models::BuildConfig mcfg;
  mcfg.num_classes = 3;
  mcfg.input_size = 8;
  mcfg.width_mult = 0.5f;
  nn::Model model = models::make_tiny_cnn(mcfg);
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 3;
  dcfg.train_per_class = 8;
  dcfg.test_per_class = 2;
  dcfg.image_size = 8;
  const data::SyntheticCifar data = data::make_synthetic_cifar(dcfg);

  core::ImportanceEvaluator eval(core::ImportanceConfig{.images_per_class = 4});
  const core::ImportanceResult scores = eval.evaluate(model, data.train);
  core::PruneStrategyConfig scfg;
  // Every filter qualifies; the fraction cap picks the lowest scorers.
  // Guarantees a non-empty selection so the comparison is meaningful.
  scfg.score_threshold = 1e9f;
  scfg.max_fraction_per_iter = 0.25f;
  PruneRun run;
  run.selection = core::select_filters(scores, scfg);
  core::apply_selection(model, run.selection);
  run.state = model.state_dict();
  return run;
}

void expect_same_run(const PruneRun& a, const PruneRun& b) {
  ASSERT_EQ(a.selection.size(), b.selection.size());
  for (size_t i = 0; i < a.selection.size(); ++i) {
    EXPECT_EQ(a.selection[i].unit_index, b.selection[i].unit_index);
    EXPECT_EQ(a.selection[i].filters, b.selection[i].filters);
  }
  ASSERT_EQ(a.state.size(), b.state.size());
  for (const auto& [key, tensor] : a.state) {
    const auto it = b.state.find(key);
    ASSERT_NE(it, b.state.end()) << key;
    EXPECT_TRUE(bitwise_equal(tensor, it->second)) << "post-surgery weight " << key;
  }
}

TEST(DeterminismTest, PruningDecisionsIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const PruneRun serial = run_pruning(1);
  const PruneRun threaded = run_pruning(8);
  expect_same_run(serial, threaded);
  // At least something must have been selected for this test to mean much.
  EXPECT_GT(core::selection_size(serial.selection), 0);
}

TEST(DeterminismTest, PruningDecisionsIdenticalAcrossReruns) {
  ThreadGuard guard;
  const PruneRun first = run_pruning(4);
  const PruneRun second = run_pruning(4);
  expect_same_run(first, second);
}

}  // namespace
}  // namespace capr
