// Differential tests of the tiled GEMM against the reference kernel:
// adversarial tile-remainder shapes, and the exact im2col GEMM shapes
// every builder architecture lowers to. Plus the kernel's config
// contract: the fixed config resolve_gemm_config returns, and outputs
// bitwise invariant to mc/kc/mr, the strategy and the worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/shape_inference.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "testutil/testutil.h"
#include "verify/shape_sweep.h"

namespace capr {
namespace {

using verify::GemmShape;
using verify::SweepOptions;
using verify::SweepResult;

TEST(GemmTiledRemainderTest, ShapeGridCoversAllTileEdges) {
  const std::vector<GemmShape> shapes = verify::remainder_gemm_shapes();
  // 8 M-values x 6 K-values x 8 N-values; every M/N is <= 31 so each
  // shape exercises partial strips/panels, and K spans the KC boundary.
  EXPECT_EQ(shapes.size(), 8u * 6u * 8u);
  const auto has = [&](int64_t m, int64_t k, int64_t n) {
    return std::any_of(shapes.begin(), shapes.end(), [&](const GemmShape& s) {
      return s.m == m && s.k == k && s.n == n;
    });
  };
  EXPECT_TRUE(has(1, 1, 1));        // degenerate minimum
  EXPECT_TRUE(has(5, 255, 15));     // one under every tile boundary
  EXPECT_TRUE(has(7, 257, 17));     // one over every tile boundary
  EXPECT_TRUE(has(31, 127, 31));    // primes, coprime to MR/NR/KC
}

TEST(GemmTiledRemainderTest, TiledMatchesReferenceOnRemainderGrid) {
  const SweepResult r = verify::sweep_gemm_tiled(verify::remainder_gemm_shapes());
  EXPECT_TRUE(r.ok()) << r.first_failure;
  EXPECT_EQ(r.failures, 0) << r.first_failure;
}

/// The (M, K, N) GEMM problems conv lowering produces for one model:
/// forward computes [Cout, Cin*k*k] x [Cin*k*k, OH*OW] per image.
std::vector<GemmShape> im2col_gemm_shapes(const std::string& arch) {
  models::BuildConfig cfg;
  nn::Model model = models::make_model(arch, cfg);

  std::vector<nn::Conv2d*> convs;
  model.net->visit([&](nn::Layer& l) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(&l)) convs.push_back(c);
  });

  const analysis::ShapeTrace trace = analysis::infer_shapes(model);
  EXPECT_TRUE(trace.report.ok()) << arch << ": shape inference failed";

  std::vector<GemmShape> shapes;
  size_t ci = 0;
  for (const analysis::ShapeStep& step : trace.steps) {
    if (step.kind != "conv2d") continue;
    if (ci >= convs.size()) {
      ADD_FAILURE() << arch << ": more conv steps than conv layers";
      return shapes;
    }
    nn::Conv2d* conv = convs[ci++];
    EXPECT_EQ(step.in.size(), 3u);
    EXPECT_EQ(step.in[0], conv->in_channels()) << arch << " layer " << step.layer;
    EXPECT_EQ(step.out[0], conv->out_channels()) << arch << " layer " << step.layer;
    shapes.push_back({conv->out_channels(),
                      conv->in_channels() * conv->kernel() * conv->kernel(),
                      step.out[1] * step.out[2]});
  }
  EXPECT_EQ(ci, convs.size()) << arch << ": conv layer/step count mismatch";
  // Dedupe repeated layer shapes (ResNet stages repeat identical blocks).
  std::sort(shapes.begin(), shapes.end(), [](const GemmShape& a, const GemmShape& b) {
    return std::tie(a.m, a.k, a.n) < std::tie(b.m, b.k, b.n);
  });
  shapes.erase(std::unique(shapes.begin(), shapes.end(),
                           [](const GemmShape& a, const GemmShape& b) {
                             return a.m == b.m && a.k == b.k && a.n == b.n;
                           }),
               shapes.end());
  return shapes;
}

class ArchGemmShapeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArchGemmShapeTest, TiledMatchesReferenceOnArchShapes) {
  const std::vector<GemmShape> shapes = im2col_gemm_shapes(GetParam());
  ASSERT_FALSE(shapes.empty());
  SweepOptions opts;
  opts.seed = 0xA2C4;
  const SweepResult r = verify::sweep_gemm_tiled(shapes, opts);
  EXPECT_EQ(r.configs_run, static_cast<int>(shapes.size()));
  EXPECT_TRUE(r.ok()) << GetParam() << ": " << r.first_failure;
}

INSTANTIATE_TEST_SUITE_P(AllBuilderArchs, ArchGemmShapeTest,
                         ::testing::ValuesIn(models::available_archs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(GemmTiledEdgeTest, EmptyExtentsAreHandled) {
  // K=0 must zero (or preserve, under accumulate) C without reading A/B.
  std::vector<float> c{1.0f, 2.0f, 3.0f, 4.0f};
  gemm_tiled(nullptr, nullptr, c.data(), 2, 0, 2);
  EXPECT_EQ(c, (std::vector<float>{0.0f, 0.0f, 0.0f, 0.0f}));
  c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm_tiled(nullptr, nullptr, c.data(), 2, 0, 2, /*accumulate=*/true);
  EXPECT_EQ(c, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
}

TEST(GemmTiledEdgeTest, ScratchReuseAcrossDifferentShapes) {
  // A shared GemmScratch must be safe to reuse as sizes grow and shrink.
  GemmScratch scratch;
  Rng rng(77);
  for (int64_t mkn : {300L, 7L, 65L, 1L, 130L}) {
    Tensor a({mkn, mkn}), b({mkn, mkn});
    rng.fill_uniform(a, -1.0f, 1.0f);
    rng.fill_uniform(b, -1.0f, 1.0f);
    Tensor got({mkn, mkn}), want({mkn, mkn});
    gemm_tiled(a.data(), b.data(), got.data(), mkn, mkn, mkn, false, &scratch);
    gemm(a.data(), b.data(), want.data(), mkn, mkn, mkn);
    const auto rep = testing::allclose_report(got, want, 1e-4f, 1e-3f);
    EXPECT_TRUE(rep.ok) << "mkn=" << mkn << ": " << rep.message;
  }
}

// ---- config --------------------------------------------------------------

TEST(GemmConfigTest, ValidatesRangesAndMicroKernel) {
  EXPECT_TRUE(gemm_config_valid(GemmTuneConfig{}));
  for (int64_t mr : legal_gemm_mr()) {
    GemmTuneConfig cfg;
    cfg.mr = mr;
    EXPECT_TRUE(gemm_config_valid(cfg)) << "mr=" << mr;
  }
  GemmTuneConfig bad;
  bad.mc = 0;
  EXPECT_FALSE(gemm_config_valid(bad));
  bad = GemmTuneConfig{};
  bad.mc = kGemmTuneMaxMc + 1;
  EXPECT_FALSE(gemm_config_valid(bad));
  bad = GemmTuneConfig{};
  bad.kc = kGemmTuneMinKc - 1;
  EXPECT_FALSE(gemm_config_valid(bad));
  bad = GemmTuneConfig{};
  bad.mr = 5;
  std::string why;
  EXPECT_FALSE(gemm_config_valid(bad, &why));
  EXPECT_NE(why.find("mr"), std::string::npos) << why;
}

TEST(GemmConfigTest, FixedConfigSplitsRowsFromTwoToTheTwentyThreeFlops) {
  for (GemmVariant v : {GemmVariant::kNN, GemmVariant::kNT, GemmVariant::kTN}) {
    const GemmTuneConfig cfg = resolve_gemm_config(v, 256, 256, 256);
    EXPECT_EQ(cfg.mc, 72);
    EXPECT_EQ(cfg.kc, 256);
    EXPECT_EQ(cfg.mr, 6);
    EXPECT_EQ(cfg.strategy, GemmParallel::kSplitM);
    EXPECT_EQ(resolve_gemm_config(v, 64, 64, 64).strategy, GemmParallel::kNoParallel);
    // 2*128*128*256 is exactly 2^23: the first split-M shape.
    EXPECT_EQ(resolve_gemm_config(v, 128, 128, 256).strategy, GemmParallel::kSplitM);
    EXPECT_EQ(resolve_gemm_config(v, 128, 128, 255).strategy, GemmParallel::kNoParallel);
  }
}

// ---- bitwise invariance --------------------------------------------------

std::vector<float> fill(int64_t count, uint64_t seed) {
  std::vector<float> v(static_cast<size_t>(count));
  Rng rng(seed);
  for (float& x : v) x = rng.uniform(-2.0f, 2.0f);
  return v;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Row-major operands of an NN product c[M, N] = a[M, K] * b[K, N], with
/// b also packed into pack_b panels (via its transpose and pack_b_nt).
struct NNProblem {
  int64_t m, k, n;
  std::vector<float> a, b;
  PackedB panels;

  NNProblem(int64_t m_, int64_t k_, int64_t n_) : m(m_), k(k_), n(n_) {
    a = fill(m * k, 7);
    b = fill(k * n, 8);
    std::vector<float> bt(static_cast<size_t>(n * k));
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t j = 0; j < n; ++j) {
        bt[static_cast<size_t>(j * k + kk)] = b[static_cast<size_t>(kk * n + j)];
      }
    }
    panels = pack_b_nt(bt.data(), n, k);
  }

  std::vector<float> tiled() const {
    std::vector<float> c(static_cast<size_t>(m * n));
    GemmScratch scratch;
    gemm_tiled(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false, &scratch);
    return c;
  }

  std::vector<float> packed(const GemmTuneConfig& cfg) const {
    std::vector<float> c(static_cast<size_t>(m * n));
    gemm_tiled_packed(pack_a_full(a.data(), m, k, cfg), panels.panels.data(), c.data(), n);
    return c;
  }
};

TEST(GemmTiledBitwiseTest, PackedOutputInvariantToConfig) {
  // Remainder-heavy shapes: partial strips, partial panels, K spanning
  // several k-blocks under small kc.
  const int64_t shapes[][3] = {{7, 19, 33}, {1, 300, 17}, {72, 72, 16}, {13, 520, 48}};
  set_num_threads(4);
  for (const auto& sh : shapes) {
    const NNProblem p(sh[0], sh[1], sh[2]);
    const std::vector<float> ref = p.tiled();
    for (int64_t mc : {1, 16, 36, 72, 144}) {
      for (int64_t kc : {8, 64, 256, 512}) {
        for (int64_t mr : legal_gemm_mr()) {
          for (GemmParallel strat : {GemmParallel::kNoParallel, GemmParallel::kSplitM}) {
            const GemmTuneConfig cfg{mc, kc, mr, strat};
            ASSERT_TRUE(same_bits(ref, p.packed(cfg)))
                << sh[0] << "x" << sh[1] << "x" << sh[2] << " mc=" << mc << " kc=" << kc
                << " mr=" << mr << " " << to_string(strat);
          }
        }
      }
    }
  }
  set_num_threads(0);
}

TEST(GemmTiledBitwiseTest, OneVsManyWorkers) {
  // Past the 2^23 threshold with three MC=72 row blocks, so split-M runs.
  const int64_t M = 200, K = 300, N = 150;
  const GemmTuneConfig cfg = resolve_gemm_config(GemmVariant::kNN, M, K, N);
  ASSERT_EQ(cfg.strategy, GemmParallel::kSplitM);
  ASSERT_EQ((M + cfg.mc - 1) / cfg.mc, 3);

  const NNProblem p(M, K, N);
  const std::vector<float> a_tn = fill(K * M, 9);
  const std::vector<float> b_nt = fill(N * K, 10);
  const std::vector<float> c0 = fill(M * N, 11);  // accumulate starts from this
  const auto run_all = [&] {
    std::vector<std::vector<float>> out;
    out.push_back(p.packed(cfg));
    for (bool accumulate : {false, true}) {
      std::vector<float> c = c0;
      GemmScratch s;
      gemm_tiled(p.a.data(), p.b.data(), c.data(), M, K, N, accumulate, &s);
      out.push_back(c);
      c = c0;
      gemm_tiled_nt(p.a.data(), b_nt.data(), c.data(), M, K, N, accumulate, &s);
      out.push_back(c);
      c = c0;
      gemm_tiled_tn(a_tn.data(), p.b.data(), c.data(), M, K, N, accumulate, &s);
      out.push_back(c);
    }
    return out;
  };
  const char* names[] = {"packed", "nn", "nt", "tn", "nn+acc", "nt+acc", "tn+acc"};
  set_num_threads(1);
  const std::vector<std::vector<float>> serial = run_all();
  for (int threads : {2, 4, 7}) {
    set_num_threads(threads);
    const std::vector<std::vector<float>> parallel = run_all();
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_bits(serial[i], parallel[i])) << names[i] << " threads=" << threads;
    }
  }
  set_num_threads(0);
}

// ---- direct conv ------------------------------------------------------------

TEST(DirectConvTest, EligibilityIsTheRunWidthOfWout) {
  // {C, H, W, k, stride, pad} -> run width (0 = panels).
  struct Case {
    ConvGeom g;
    int64_t run;
  };
  const Case cases[] = {
      {{8, 32, 32, 3, 3, 1, 1}, 16},  // serve-compute node 3
      {{8, 32, 32, 3, 3, 2, 1}, 16},  // 16x16 output
      {{8, 32, 32, 1, 1, 2, 0}, 16},  // 1x1 stride-2, one phase
      {{32, 8, 8, 3, 3, 1, 1}, 8},    // 8x8: two 8-lane runs per panel
      {{32, 8, 24, 3, 3, 1, 1}, 8},   // Wout 24
      {{64, 4, 4, 3, 3, 1, 1}, 4},    // 4x4: four 4-lane runs
      {{64, 8, 12, 3, 3, 1, 1}, 4},   // Wout 12, Hout 8
      {{128, 2, 2, 3, 3, 1, 1}, 0},   // vgg's 2x2 tail: 4 columns
      {{8, 1, 8, 1, 1, 1, 0}, 0},     // 8 columns, not a whole panel
      {{8, 16, 20, 3, 3, 1, 1}, 4},   // Wout 20: 4-lane runs
      {{8, 16, 18, 3, 3, 1, 1}, 0},   // Wout 18: 288 columns, but no run width divides 18
  };
  for (const Case& c : cases) {
    EXPECT_EQ(direct_conv_run(c.g), c.run)
        << c.g.in_channels << "x" << c.g.in_h << "x" << c.g.in_w << " k" << c.g.kernel_h
        << " s" << c.g.stride << " p" << c.g.padding;
    EXPECT_EQ(direct_conv_eligible(c.g), c.run != 0);
  }
  EXPECT_THROW(direct_conv_map(cases[7].g), std::invalid_argument);
}

// The GEMM's run loads must stay inside the planes. Each plane buffer
// here is its own heap block of exactly direct_plane_floats(g) floats
// whose last float some run reads, so under AddressSanitizer a load one
// float past the plane is a heap-buffer-overflow; in every build the
// result must equal the panel path.
TEST(DirectConvTest, RunLoadsEndAtThePlaneBufferEnd) {
  const ConvGeom geoms[] = {
      {3, 16, 16, 3, 3, 1, 1},  // 16-lane runs
      {5, 8, 8, 3, 3, 1, 1},    // 8-lane runs
      {7, 4, 4, 3, 3, 1, 1},    // 4-lane runs
      {4, 8, 8, 5, 5, 1, 2},    // 5x5
      {3, 31, 31, 1, 1, 2, 0},  // 1x1 stride 2: one phase
      {2, 16, 32, 2, 2, 2, 0},  // 2x2 stride 2: four phases, all read
  };
  for (const ConvGeom& g : geoms) {
    const DirectConv map = direct_conv_map(g);
    const int64_t n = direct_plane_floats(g);
    // The furthest float any run reads: the last panel's last run at the
    // largest offset.
    int64_t furthest = 0;
    const int64_t last_col = g.col_cols() - map.run;
    const int64_t base = (last_col / map.out_w) * map.plane_w + last_col % map.out_w;
    for (int64_t o : map.off) furthest = std::max(furthest, base + o + map.run - 1);
    ASSERT_EQ(furthest, n - 1) << "the geometry does not read its planes' last float";

    const int64_t K = g.col_rows(), N = g.col_cols(), M = 7;
    const std::vector<float> im = fill(g.in_channels * g.in_h * g.in_w, 21);
    const std::vector<float> a = fill(M * K, 22);
    const std::unique_ptr<float[]> planes(new float[static_cast<size_t>(n)]);
    ASSERT_TRUE(fill_direct_planes(im.data(), g, planes.get()));
    std::vector<float> panels(static_cast<size_t>(packed_b_floats(K, N)));
    ASSERT_TRUE(im2col_packed(im.data(), g, panels.data()));

    const PackedA pa = pack_a_full(a.data(), M, K, resolve_gemm_config(GemmVariant::kNN, M, K, N));
    std::vector<float> want(static_cast<size_t>(M * N)), got(want.size());
    gemm_tiled_packed(pa, panels.data(), want.data(), N);
    gemm_tiled_packed_direct(pa, planes.get(), map, got.data());
    EXPECT_TRUE(same_bits(want, got)) << "packed, run " << map.run;
  }
}

}  // namespace
}  // namespace capr
