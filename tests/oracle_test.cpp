// Differential testing of the optimized kernels against the naive oracle
// (src/verify/oracle.h) over randomized shape sweeps. Every sweep runs
// >= 50 seeded configurations; a failure message names the kernel, the
// exact configuration, and the worst element, so it reproduces directly.
#include "verify/oracle.h"

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "test_util.h"
#include "verify/shape_sweep.h"

namespace capr::verify {
namespace {

using testing::expect_allclose;

// ---- the oracle itself is hand-checked on tiny known cases -----------------

TEST(OracleSelfTest, RefMatmulKnownProduct) {
  const Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::from({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(expect_allclose(ref_matmul(a, b), Tensor::from({2, 2}, {19, 22, 43, 50})));
}

TEST(OracleSelfTest, RefConvKnownValues) {
  // 1x1x2x2 input, one 2x2 filter, no padding: single output = dot + bias.
  const Tensor x = Tensor::from({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor w = Tensor::from({1, 1, 2, 2}, {10, 20, 30, 40});
  const Tensor b = Tensor::from({5});
  const Tensor y = ref_conv2d_forward(x, w, b, 1, 0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10 + 40 + 90 + 160 + 5);
}

TEST(OracleSelfTest, RefIm2colIdentityKernel) {
  // k=1, stride=1, pad=0: the column matrix is the image itself.
  ConvGeom g;
  g.in_channels = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel_h = g.kernel_w = 1;
  const Tensor im = testing::random_tensor({2, 3, 3}, 5);
  const Tensor col = ref_im2col(im, g);
  EXPECT_TRUE(expect_allclose(col, im.reshape({2, 9})));
}

// ---- randomized differential sweeps ----------------------------------------

TEST(OracleSweepTest, GemmFamilyMatchesReference) {
  SweepOptions opts;
  opts.configs = 60;
  const SweepResult r = sweep_gemm(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, Im2colCol2imMatchReferenceAndAreAdjoint) {
  // 1000 configs so planted values land on both read and unread input
  // positions of every im2col_packed path (stride 1, stride 2, larger
  // strides, unpadded gathers).
  SweepOptions opts;
  opts.configs = 1000;
  const SweepResult r = sweep_im2col(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, DirectConvMatchesPanelPathBytewise) {
  SweepOptions opts;
  opts.configs = 1000;
  const SweepResult r = sweep_direct_conv(opts);
  EXPECT_EQ(r.configs_run, 1000);
  EXPECT_TRUE(r.ok()) << r.failures << " failure(s); first: " << r.first_failure;
}

TEST(OracleSweepTest, Conv2dForwardBackwardMatchDirectConvolution) {
  SweepOptions opts;
  opts.configs = 55;
  const SweepResult r = sweep_conv2d(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, DifferentSeedsCoverDifferentConfigs) {
  // The sweep must actually randomize: two seeds may not produce the
  // same pass/fail trace trivially — sanity-check by running both.
  SweepOptions a, b;
  a.configs = b.configs = 50;
  a.seed = 1;
  b.seed = 2;
  EXPECT_TRUE(sweep_gemm(a).ok());
  EXPECT_TRUE(sweep_gemm(b).ok());
}

}  // namespace
}  // namespace capr::verify
