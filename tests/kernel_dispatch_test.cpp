// Pins the kernel-dispatch semantics: which kernel runs, what switching
// guarantees, and how the strong-zero contract survives the fast path.
//
// The load-bearing property for the pruning framework: a masked /
// apply_selection-pruned model must behave identically under either
// kernel, including when poisoned (NaN/Inf) activations hit exact-zero
// weights — the tiled path detects non-finite B operands and routes the
// call through the strong-zero reference kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/surgeon.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "testutil/testutil.h"

namespace capr {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

Tensor random(Rng& rng, Shape shape) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

TEST(KernelDispatchTest, SetAndScopeRoundTrip) {
  const GemmKernel before = gemm_kernel();
  {
    GemmKernelScope ref(GemmKernel::kReference);
    EXPECT_EQ(gemm_kernel(), GemmKernel::kReference);
    {
      GemmKernelScope tiled(GemmKernel::kTiled);
      EXPECT_EQ(gemm_kernel(), GemmKernel::kTiled);
    }
    EXPECT_EQ(gemm_kernel(), GemmKernel::kReference);
  }
  EXPECT_EQ(gemm_kernel(), before);
  EXPECT_STREQ(to_string(GemmKernel::kTiled), "tiled");
  EXPECT_STREQ(to_string(GemmKernel::kReference), "reference");
}

TEST(KernelDispatchTest, FiniteInputsAgreeAcrossKernelsOnAllVariants) {
  // Awkward remainder shape: no dimension divides the tile sizes.
  const int64_t m = 37, k = 129, n = 53;
  Rng rng(42);
  const Tensor a = random(rng, {m, k});
  const Tensor b = random(rng, {k, n});
  const Tensor bt = random(rng, {n, k});
  const Tensor at = random(rng, {k, m});

  Tensor nn_t, nt_t, tn_t, nn_r, nt_r, tn_r;
  {
    GemmKernelScope scope(GemmKernel::kTiled);
    nn_t = matmul(a, b);
    nt_t = matmul_nt(a, bt);
    tn_t = matmul_tn(at, b);
  }
  {
    GemmKernelScope scope(GemmKernel::kReference);
    nn_r = matmul(a, b);
    nt_r = matmul_nt(a, bt);
    tn_r = matmul_tn(at, b);
  }
  EXPECT_TRUE(testing::allclose_report(nn_t, nn_r, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(nt_t, nt_r, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(tn_t, tn_r, 1e-4f, 1e-3f).ok);
}

TEST(KernelDispatchTest, StrongZeroHoldsUnderTiledKernel) {
  // Column 1 of A is exactly zero; row 1 of B is poisoned. The zero must
  // annihilate NaN/Inf even with the tiled kernel selected: pack_b spots
  // the non-finite operand and the call runs on the reference kernel.
  GemmKernelScope scope(GemmKernel::kTiled);
  Tensor a({2, 2});
  a[0] = 1.0f, a[1] = 0.0f, a[2] = 2.0f, a[3] = 0.0f;
  Tensor b({2, 3});
  b[0] = 1.0f, b[1] = 2.0f, b[2] = 3.0f;
  b[3] = kNan, b[4] = kInf, b[5] = -kInf;
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], 3.0f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  EXPECT_FLOAT_EQ(c[4], 4.0f);
  EXPECT_FLOAT_EQ(c[5], 6.0f);
}

TEST(KernelDispatchTest, NonzeroWeightsStillPropagateNaNUnderTiled) {
  GemmKernelScope scope(GemmKernel::kTiled);
  Tensor a({1, 2});
  a[0] = 1.0f, a[1] = 0.5f;
  Tensor b({2, 2});
  b[0] = 1.0f, b[1] = 1.0f;
  b[2] = kNan, b[3] = kInf;
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_TRUE(std::isinf(c[1]));
}

TEST(KernelDispatchTest, RawTiledFallsBackOnNonFiniteB) {
  // Same call, raw entry point: gemm_tiled must agree bitwise with the
  // reference kernel whenever B is poisoned (it IS the reference then).
  const int64_t m = 9, k = 20, n = 33;
  Rng rng(7);
  const Tensor a = random(rng, {m, k});
  Tensor b = random(rng, {k, n});
  b[5 * n + 2] = kNan;
  Tensor got({m, n}), want({m, n});
  gemm_tiled(a.data(), b.data(), got.data(), m, k, n);
  gemm(a.data(), b.data(), want.data(), m, k, n);
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "at " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << "at " << i;
    }
  }
}

TEST(KernelDispatchTest, NtStridedOperandScanCatchesLastColumnInf) {
  // gemm_tiled_nt reads its logical B = b^T with column stride K, the
  // non-unit-stride branch of pack_b. Inf sits in the last column of B
  // (the one real lane of the tail panel) at a k whose A column is
  // exactly zero: the scan must route the call to the strong-zero
  // reference, which annihilates it.
  const int64_t m = 7, k = 19, n = 33;
  Rng rng(9);
  Tensor a = random(rng, {m, k});
  for (int64_t i = 0; i < m; ++i) a[i * k + 4] = 0.0f;
  Tensor b = random(rng, {n, k});
  b[(n - 1) * k + 4] = kInf;
  Tensor got({m, n}), want({m, n});
  gemm_tiled_nt(a.data(), b.data(), got.data(), m, k, n);
  const Tensor bt = transpose(b);
  gemm(a.data(), bt.data(), want.data(), m, k, n);
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(got[i])) << "Inf leaked past a zero weight at " << i;
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * static_cast<size_t>(m * n)), 0);
}

TEST(KernelDispatchTest, MaskedConvSilencesPoisonedChannelUnderTiled) {
  // All weights reading input channel 1 are exactly zero (a masked
  // channel); channel 1 of the input is poisoned with NaN. The conv
  // output must stay finite and equal the clean-input output: this is
  // the strong-zero contract end-to-end through im2col + dispatch.
  GemmKernelScope scope(GemmKernel::kTiled);
  nn::Conv2d conv(2, 3, 3, 1, 1, /*bias=*/true);
  Rng rng(11);
  rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
  rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
  const int64_t kk = conv.kernel() * conv.kernel();
  for (int64_t f = 0; f < conv.out_channels(); ++f) {
    float* wch1 = conv.weight().value.data() + (f * 2 + 1) * kk;
    for (int64_t i = 0; i < kk; ++i) wch1[i] = 0.0f;
  }

  Tensor clean = random(rng, {1, 2, 6, 6});
  for (int64_t i = 0; i < 36; ++i) clean[36 + i] = 0.0f;  // channel 1
  Tensor poisoned = clean;
  for (int64_t i = 0; i < 36; ++i) poisoned[36 + i] = kNan;

  const Tensor y_clean = conv.forward(clean, /*training=*/false);
  const Tensor y_poisoned = conv.forward(poisoned, /*training=*/false);
  for (int64_t i = 0; i < y_poisoned.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(y_poisoned[i])) << "NaN leaked through masked channel at " << i;
  }
  // The poisoned call runs on the reference kernel (fallback), the clean
  // one on the fast path; equal up to accumulation-order rounding.
  const auto rep = testing::allclose_report(y_poisoned, y_clean, 1e-5f, 1e-5f);
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(KernelDispatchTest, PrunedModelForwardAgreesAcrossKernels) {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  nn::Model model = models::make_tiny_cnn(cfg);
  core::apply_selection(model, {{0, {0, 2}}, {1, {1}}});

  Rng rng(3);
  const Tensor x = random(rng, {2, cfg.input_channels, cfg.input_size, cfg.input_size});
  Tensor y_tiled, y_ref;
  {
    GemmKernelScope scope(GemmKernel::kTiled);
    y_tiled = model.forward(x, /*training=*/false);
  }
  {
    GemmKernelScope scope(GemmKernel::kReference);
    y_ref = model.forward(x, /*training=*/false);
  }
  const auto rep = testing::allclose_report(y_tiled, y_ref, 1e-4f, 1e-3f);
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(KernelDispatchTest, ConvForwardBackwardAgreeAcrossKernels) {
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true);
  Rng rng(21);
  rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
  rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
  const Tensor x = random(rng, {2, 3, 10, 10});
  const Tensor go = random(rng, {2, 8, 10, 10});

  Tensor y_t, gx_t, gw_t, gb_t, y_r, gx_r, gw_r, gb_r;
  {
    GemmKernelScope scope(GemmKernel::kTiled);
    for (nn::Param* p : conv.params()) p->zero_grad();
    y_t = conv.forward(x, /*training=*/true);
    gx_t = conv.backward(go);
    gw_t = conv.weight().grad;
    gb_t = conv.bias().grad;
  }
  {
    GemmKernelScope scope(GemmKernel::kReference);
    for (nn::Param* p : conv.params()) p->zero_grad();
    y_r = conv.forward(x, /*training=*/true);
    gx_r = conv.backward(go);
    gw_r = conv.weight().grad;
    gb_r = conv.bias().grad;
  }
  EXPECT_TRUE(testing::allclose_report(y_t, y_r, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(gx_t, gx_r, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(gw_t, gw_r, 1e-3f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(gb_t, gb_r, 1e-4f, 1e-3f).ok);
}

}  // namespace
}  // namespace capr
