// Graph-compiler differential harness.
//
// The load-bearing contract (compile/plan.h): with BN folding OFF, a
// compiled ExecutionPlan produces BITWISE-identical logits to the
// interpreted Model::forward_inference under either GEMM kernel, for
// every architecture, dense or pruned — epilogue fusion and weight
// pre-packing are exact transformations. BN folding is the single
// eps-bounded pass. Per-node fallback: layers with active interventions
// run interpreted inside the plan, never the whole model. compile_test
// runs under the release, ASan, UBSan and TSan CI lanes.
#include "compile/compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/dump.h"
#include "compile/plan.h"
#include "graph/dump.h"
#include "core/surgeon.h"
#include "models/builders.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/pooling.h"
#include "serve/session.h"
#include "tensor/gemm_tiled.h"
#include "tensor/rng.h"
#include "test_util.h"
#include "verify/compile_diff.h"

namespace capr::compile {
namespace {

const std::vector<std::string>& all_archs() {
  static const std::vector<std::string> archs = {
      "vgg11",    "vgg13",    "vgg16",    "vgg19", "resnet20",
      "resnet32", "resnet44", "resnet56", "tiny"};
  return archs;
}

models::BuildConfig small_cfg() {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  cfg.width_mult = 0.5f;
  return cfg;
}

Tensor random_batch(const Shape& in, int64_t n, uint64_t seed) {
  Tensor x({n, in[0], in[1], in[2]});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Deterministic pseudo-random prune of roughly a quarter of every
/// prunable unit's filters (keyed by `seed` so property sweeps vary).
void prune_some_filters(nn::Model& model, uint64_t seed) {
  for (size_t u = 0; u < model.units.size(); ++u) {
    const int64_t n = model.units[u].conv->out_channels();
    if (n < 4) continue;
    std::vector<int64_t> filters;
    for (int64_t c = 0; c < n; ++c) {
      if ((static_cast<uint64_t>(c) * 2654435761u + seed * 40503u + u) % 4 == 0) {
        filters.push_back(c);
      }
    }
    if (filters.empty()) filters.push_back(static_cast<int64_t>(seed % n));
    if (static_cast<int64_t>(filters.size()) >= n) filters.pop_back();
    core::remove_filters(model, u, filters);
  }
}

std::shared_ptr<const ExecutionPlan> must_compile(const nn::Model& model,
                                                  const CompileOptions& opts) {
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  CompileResult result = compile(g, opts);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_NE(result.plan, nullptr);
  return result.plan;
}

class CompileArchSweep : public ::testing::TestWithParam<std::string> {};

// The headline: every arch x {dense, pruned} x {reference, tiled},
// fold OFF -> bitwise identity with the interpreted forward.
TEST_P(CompileArchSweep, CompiledMatchesInterpretedBitwise) {
  for (const bool pruned : {false, true}) {
    nn::Model model = models::make_model(GetParam(), small_cfg());
    if (pruned) prune_some_filters(model, 1);
    const Tensor x = random_batch(model.input_shape, 3, 31);
    CompileOptions opts;
    opts.fold_batchnorm = false;
    for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
      const GemmKernelScope scope(kernel);
      const verify::PlanDiff d = verify::compile_and_diff(model, opts, x);
      EXPECT_TRUE(d.bitwise) << GetParam() << (pruned ? " pruned" : " dense") << " kernel "
                             << static_cast<int>(kernel) << ": " << d.detail;
    }
  }
}

// BN folding re-derives weights in double precision: outputs agree to a
// small relative epsilon, not bitwise.
TEST_P(CompileArchSweep, FoldedPlanWithinEps) {
  nn::Model model = models::make_model(GetParam(), small_cfg());
  const Tensor x = random_batch(model.input_shape, 3, 37);
  CompileOptions opts;  // fold_batchnorm = true
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    const verify::PlanDiff d = verify::compile_and_diff(model, opts, x);
    ASSERT_TRUE(d.shape_match) << d.detail;
    EXPECT_LT(d.max_rel_err, 2e-3) << GetParam() << " kernel " << static_cast<int>(kernel)
                                   << ": " << d.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, CompileArchSweep, ::testing::ValuesIn(all_archs()));

// Randomized prune-then-compile property sweep (PR 1 oracle spirit):
// arbitrary legal prunes never break either contract tier.
TEST(CompilePropertyTest, RandomizedPruneThenCompile) {
  for (const char* arch : {"resnet20", "vgg11"}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      nn::Model model = models::make_model(arch, small_cfg());
      prune_some_filters(model, seed);
      const Tensor x = random_batch(model.input_shape, 2, 100 + seed);
      for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
        const GemmKernelScope scope(kernel);
        CompileOptions exact;
        exact.fold_batchnorm = false;
        const verify::PlanDiff d = verify::compile_and_diff(model, exact, x);
        EXPECT_TRUE(d.bitwise) << arch << " seed " << seed << ": " << d.detail;
        const verify::PlanDiff folded = verify::compile_and_diff(model, CompileOptions{}, x);
        EXPECT_LT(folded.max_rel_err, 2e-3) << arch << " seed " << seed << ": " << folded.detail;
      }
    }
  }
}

// BN folding collapses conv+bn pairs into single steps and records how
// many it folded.
TEST(CompilePassTest, FoldReducesStepCount) {
  nn::Model model = models::make_model("vgg11", small_cfg());
  const auto folded = must_compile(model, CompileOptions{});
  CompileOptions off;
  off.fold_batchnorm = false;
  const auto plain = must_compile(model, off);
  ASSERT_TRUE(folded && plain);
  EXPECT_GT(folded->folded_batchnorms(), 0);
  EXPECT_EQ(plain->folded_batchnorms(), 0);
  EXPECT_EQ(plain->steps().size(),
            folded->steps().size() + static_cast<size_t>(folded->folded_batchnorms()));
  for (const Step& s : folded->steps()) EXPECT_NE(s.kind, StepKind::kBatchNorm);
}

// A layer with an active read-only intervention cannot be lowered
// natively; it must become a per-node interpreted step — and the rest of
// the model still compiles (never whole-model fallback).
TEST(CompileFallbackTest, InterventionFallsBackPerNode) {
  nn::Model model = models::make_model("tiny", small_cfg());
  ASSERT_FALSE(model.units.empty());
  nn::Layer* point = model.units[0].score_point;
  ASSERT_NE(point, nullptr);
  point->instrument().channel_scale.assign(
      static_cast<size_t>(model.units[0].conv->out_channels()), 0.5f);

  CompileOptions opts;
  opts.fold_batchnorm = false;
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  const CompileResult result = compile(g, opts);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_EQ(result.plan->interpreted_steps(), 1);
  EXPECT_EQ(result.interpreted_nodes, 1);
  EXPECT_FALSE(result.plan->shareable());
  EXPECT_GT(static_cast<int>(result.plan->steps().size()), 1);

  // The interpreted forward applies the same interventions -> bitwise.
  const Tensor x = random_batch(model.input_shape, 2, 47);
  const verify::PlanDiff d = verify::diff_against_interpreted(model, *result.plan, x);
  point->instrument().channel_scale.clear();
  EXPECT_TRUE(d.bitwise) << d.detail;
}

// LeakyReLU carries a slope through fusion; exercised on a hand-built
// chain (the stock archs only use plain ReLU).
TEST(CompilePassTest, LeakyReluEpilogueFusedExact) {
  nn::Model model;
  model.arch = "custom-leaky";
  model.input_shape = {3, 8, 8};
  model.num_classes = 4;
  model.net = std::make_unique<nn::Sequential>();
  model.net->add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, /*bias=*/true));
  model.net->add(std::make_unique<nn::LeakyReLU>(0.1f));
  model.net->add(std::make_unique<nn::AvgPool2d>(2));
  model.net->add(std::make_unique<nn::Flatten>());
  model.net->add(std::make_unique<nn::Linear>(8 * 4 * 4, 4));

  const Tensor x = random_batch(model.input_shape, 3, 53);
  CompileOptions fused;
  fused.fold_batchnorm = false;
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    const auto pf = must_compile(model, fused);
    ASSERT_TRUE(pf);
    EXPECT_EQ(pf->fused_epilogues(), 1);
    ASSERT_FALSE(pf->steps().empty());
    EXPECT_EQ(pf->steps()[0].act, Epilogue::kLeakyReLU);
    EXPECT_FLOAT_EQ(pf->steps()[0].alpha, 0.1f);
    const verify::PlanDiff d = verify::compile_and_diff(model, fused, x);
    EXPECT_TRUE(d.bitwise) << "kernel " << static_cast<int>(kernel) << ": " << d.detail;
  }
}

// One immutable plan, four threads, private scratches: every thread sees
// the single-threaded result bit for bit. Runs under the TSan CI lane.
TEST(CompileConcurrencyTest, SharedPlanFourThreadsBitwise) {
  const GemmKernelScope scope(GemmKernel::kTiled);
  nn::Model model = models::make_model("resnet20", small_cfg());
  CompileOptions opts;
  opts.fold_batchnorm = false;
  const auto plan = must_compile(model, opts);
  ASSERT_TRUE(plan);

  const Tensor x = random_batch(model.input_shape, 4, 59);
  nn::InferScratch ref_scratch;
  const Tensor want = plan->run(x, ref_scratch);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      nn::InferScratch scratch;
      plan->warm(scratch, x.dim(0));
      for (int round = 0; round < 8; ++round) {
        if (!bitwise_equal(plan->run_ref(x, scratch), want)) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0);
}

// Session-level mode contract: kCompiled is bitwise vs the interpreted
// session; kCompiledFolded is eps-accurate and actually folds.
TEST(CompileSessionTest, SessionModesHonourContract) {
  const models::BuildConfig cfg = small_cfg();
  serve::SessionOptions interp;
  interp.mode = serve::SessionOptions::Mode::kInterpreted;
  const serve::InferenceSession base(models::make_model("resnet20", cfg), interp);
  const serve::InferenceSession compiled(models::make_model("resnet20", cfg));
  serve::SessionOptions fopts;
  fopts.mode = serve::SessionOptions::Mode::kCompiledFolded;
  const serve::InferenceSession folded(models::make_model("resnet20", cfg), fopts);

  EXPECT_EQ(base.plan(), nullptr);
  ASSERT_NE(compiled.plan(), nullptr);
  ASSERT_NE(folded.plan(), nullptr);
  EXPECT_EQ(compiled.plan()->folded_batchnorms(), 0);
  EXPECT_GT(folded.plan()->folded_batchnorms(), 0);

  const Tensor x = random_batch(base.input_shape(), 3, 61);
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    nn::InferScratch s1, s2, s3;
    const Tensor want = base.run(x, s1);
    EXPECT_TRUE(bitwise_equal(compiled.run(x, s2), want));
    EXPECT_TRUE(capr::testing::expect_allclose(folded.run(x, s3), want, 1e-3f, 2e-3f));
  }
}

// conv(2 -> 4, 3x3) -> ReLU -> flatten -> linear over a 2x8x8 input,
// weights drawn from a fixed seed. With `mask_channel0` every tap that
// reads input channel 0 is an exact zero (a masked channel).
nn::Model poison_probe_model(int64_t stride, int64_t padding, bool mask_channel0) {
  nn::Model model;
  model.arch = "custom-poison-probe";
  model.input_shape = {2, 8, 8};
  model.num_classes = 3;
  auto conv = std::make_unique<nn::Conv2d>(2, 4, 3, stride, padding, /*bias=*/true);
  Rng rng(71);
  rng.fill_uniform(conv->weight().value, -1.0f, 1.0f);
  rng.fill_uniform(conv->bias().value, -1.0f, 1.0f);
  if (mask_channel0) {
    for (int64_t f = 0; f < 4; ++f) {
      float* taps = conv->weight().value.data() + f * 2 * 9;
      std::fill(taps, taps + 9, 0.0f);
    }
  }
  const Shape conv_out = conv->output_shape(model.input_shape);
  auto linear =
      std::make_unique<nn::Linear>(conv_out[0] * conv_out[1] * conv_out[2], model.num_classes);
  rng.fill_uniform(linear->weight().value, -1.0f, 1.0f);
  rng.fill_uniform(linear->bias().value, -1.0f, 1.0f);
  model.net = std::make_unique<nn::Sequential>();
  model.net->add(std::move(conv));
  model.net->add(std::make_unique<nn::ReLU>());
  model.net->add(std::make_unique<nn::Flatten>());
  model.net->add(std::move(linear));
  return model;
}

bool all_finite(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

// Both non-finite scans (im2col_packed in the plan, im2col_packed then
// pack_b in the interpreted conv) agree with the strong-zero contract:
// (a) a NaN the masked channel feeds sends both to the reference
//     kernel, where the zero taps annihilate it;
// (b) a NaN in a row the stride-2, pad-0 windows never read keeps both
//     on the fast path, with the same bits as a clean input.
TEST(CompileFallbackTest, NonFiniteInputsMatchInterpretedBitwise) {
  const GemmKernelScope scope(GemmKernel::kTiled);
  serve::SessionOptions interp;
  interp.mode = serve::SessionOptions::Mode::kInterpreted;
  const float nan = std::numeric_limits<float>::quiet_NaN();

  {
    const serve::InferenceSession base(poison_probe_model(1, 1, true), interp);
    const serve::InferenceSession compiled(poison_probe_model(1, 1, true));
    ASSERT_NE(compiled.plan(), nullptr);
    Tensor x = random_batch(base.input_shape(), 2, 73);
    x[5] = nan;            // image 0, channel 0
    x[128 + 64 - 1] = nan;  // image 1, channel 0, last element
    nn::InferScratch s1, s2;
    const Tensor want = base.run(x, s1);
    const Tensor got = compiled.run(x, s2);
    EXPECT_TRUE(all_finite(want)) << "NaN leaked past the masked channel";
    EXPECT_TRUE(bitwise_equal(got, want));
  }
  {
    const serve::InferenceSession base(poison_probe_model(2, 0, false), interp);
    const serve::InferenceSession compiled(poison_probe_model(2, 0, false));
    ASSERT_NE(compiled.plan(), nullptr);
    const Tensor clean = random_batch(base.input_shape(), 2, 79);
    Tensor x = clean;
    for (int64_t img = 0; img < 2; ++img) {
      for (int64_t c = 0; c < 2; ++c) {
        float* last_row = x.data() + (img * 2 + c) * 64 + 7 * 8;
        std::fill(last_row, last_row + 8, nan);
      }
    }
    nn::InferScratch s1, s2, s3;
    const Tensor want = base.run(x, s1);
    const Tensor got = compiled.run(x, s2);
    EXPECT_TRUE(all_finite(got));
    EXPECT_TRUE(bitwise_equal(got, want));
    EXPECT_TRUE(bitwise_equal(got, compiled.run(clean, s3)));
  }
}

// The dropout node disappears from compiled plans (inference identity);
// slot aliasing keeps the data flow intact.
TEST(CompileLoweringTest, DropoutIsElided) {
  nn::Model model;
  model.arch = "custom-dropout";
  model.input_shape = {3, 8, 8};
  model.num_classes = 4;
  model.net = std::make_unique<nn::Sequential>();
  model.net->add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, /*bias=*/true));
  model.net->add(std::make_unique<nn::Dropout>(0.5f));
  model.net->add(std::make_unique<nn::Flatten>());
  model.net->add(std::make_unique<nn::Linear>(4 * 8 * 8, 4));

  CompileOptions opts;
  opts.fold_batchnorm = false;
  const auto plan = must_compile(model, opts);
  ASSERT_TRUE(plan);
  EXPECT_EQ(plan->steps().size(), 3u);  // conv, flatten, linear
  for (const Step& s : plan->steps()) EXPECT_NE(s.kind, StepKind::kInterpreted);
  const Tensor x = random_batch(model.input_shape, 2, 67);
  const verify::PlanDiff d = verify::diff_against_interpreted(model, *plan, x);
  EXPECT_TRUE(d.bitwise) << d.detail;
}

// ---- golden plan dumps ------------------------------------------------------

std::string read_golden_plan(const std::string& arch) {
  const std::string path = std::string(CAPR_GOLDEN_PLAN_DIR) + "/" + arch + ".json";
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "missing golden plan dump " << path
                  << " (regenerate with: capr-analyze --arch " << arch << " --dump-plan "
                  << path << ")";
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class PlanDumpSweep : public ::testing::TestWithParam<std::string> {};

// The committed goldens were generated with the BuildConfig defaults and
// default CompileOptions (all passes on) — a bare `capr-analyze --arch
// <name> --dump-plan` invocation. Any drift in lowering, pass behaviour,
// step schema, or the structural hash shows up as a diff here and must
// be reviewed by regenerating the golden.
TEST_P(PlanDumpSweep, MatchesGoldenJson) {
  const nn::Model m = models::make_model(GetParam(), models::BuildConfig{});
  const graph::ModuleGraph g = graph::ModuleGraph::build(m);
  ASSERT_TRUE(g.ok()) << g.error()->format();
  const CompileOptions opts;  // all passes on
  const CompileResult result = compile(g, opts);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_EQ(to_json(*result.plan, g, opts, m.arch), read_golden_plan(GetParam()));
}

TEST_P(PlanDumpSweep, DumpIsBitwiseStable) {
  const nn::Model a = models::make_model(GetParam(), models::BuildConfig{});
  const nn::Model b = models::make_model(GetParam(), models::BuildConfig{});
  const graph::ModuleGraph ga = graph::ModuleGraph::build(a);
  const graph::ModuleGraph gb = graph::ModuleGraph::build(b);
  const CompileOptions opts;
  const CompileResult ra = compile(ga, opts);
  const CompileResult rb = compile(gb, opts);
  ASSERT_NE(ra.plan, nullptr);
  ASSERT_NE(rb.plan, nullptr);
  EXPECT_EQ(to_json(*ra.plan, ga, opts, a.arch), to_json(*rb.plan, gb, opts, b.arch));
}

// Both dump documents write the arch label as an escaped JSON string.
TEST(PlanDumpTest, ArchIsEscapedInBothDocuments) {
  const nn::Model m = models::make_model("tiny", models::BuildConfig{});
  const graph::ModuleGraph g = graph::ModuleGraph::build(m);
  const CompileOptions opts;
  const CompileResult result = compile(g, opts);
  ASSERT_NE(result.plan, nullptr);
  const std::string arch = "a\"b\\c";
  const std::string want = "\"arch\": \"a\\\"b\\\\c\"";
  EXPECT_NE(to_json(*result.plan, g, opts, arch).find(want), std::string::npos);
  EXPECT_NE(graph::to_json(g, arch).find(want), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, PlanDumpSweep, ::testing::ValuesIn(all_archs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace capr::compile
