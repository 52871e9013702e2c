#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace capr {
namespace {

/// Direct (definition-level) convolution of one image, for reference.
Tensor naive_conv(const Tensor& image, const Tensor& weight, const ConvGeom& g) {
  const int64_t cout = weight.dim(0);
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor out({cout, oh, ow});
  for (int64_t f = 0; f < cout; ++f) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (int64_t c = 0; c < g.in_channels; ++c) {
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t iy = y * g.stride + kh - g.padding;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t ix = x * g.stride + kw - g.padding;
              if (ix < 0 || ix >= g.in_w) continue;
              acc += static_cast<double>(image.at({c, iy, ix})) *
                     weight.at({f, c, kh, kw});
            }
          }
        }
        out.at({f, y, x}) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

TEST(ConvGeomTest, OutputSizes) {
  ConvGeom g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 16);
  g.padding = 0;
  EXPECT_EQ(g.out_h(), 15);
}

TEST(ConvGeomTest, ValidationErrors) {
  ConvGeom bad{0, 8, 8, 3, 3, 1, 1};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  ConvGeom too_big{1, 2, 2, 5, 5, 1, 0};
  EXPECT_THROW(too_big.validate(), std::invalid_argument);
  ConvGeom ok{1, 8, 8, 3, 3, 1, 1};
  EXPECT_NO_THROW(ok.validate());
}

// The paper's Fig. 2: a 1x2x2 filter over a 3x3 input with stride 1
// becomes a 4x9 matrix whose product with the flattened input equals the
// convolution output.
TEST(Im2ColTest, PaperFigure2Example) {
  ConvGeom g{1, 3, 3, 2, 2, 1, 0};
  EXPECT_EQ(g.col_rows(), 4);   // 1 channel * 2*2 kernel
  EXPECT_EQ(g.col_cols(), 4);   // 2x2 output positions
  Tensor image = Tensor::from({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor weight = Tensor::from({1, 1, 2, 2}, {1, 0, 0, 1});  // picks x[p] + x[p+4]
  Tensor col = im2col(image, g);
  Tensor wmat = weight.reshape({1, 4});
  Tensor out = matmul(wmat, col);
  // Windows: (1,5),(2,6),(4,8),(5,9) summed.
  EXPECT_TRUE(out.allclose(Tensor::from({1, 4}, {6, 8, 12, 14})));
}

TEST(Im2ColTest, ShapeValidation) {
  ConvGeom g{2, 4, 4, 3, 3, 1, 1};
  EXPECT_THROW(im2col(Tensor({1, 4, 4}), g), std::invalid_argument);
  EXPECT_THROW(col2im(Tensor({1, 1}), g), std::invalid_argument);
}

// im2col_packed returns the exact predicate "some column value is
// non-finite", the one pack_b evaluates on the unpacked column matrix:
// an input element the windows never read cannot flip it.
TEST(Im2ColPackedTest, FinitenessCountsReadElementsOnly) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto packed_finite = [](const Tensor& im, const ConvGeom& g) {
    std::vector<float> panels(static_cast<size_t>(packed_b_floats(g.col_rows(), g.col_cols())));
    return im2col_packed(im.data(), g, panels.data());
  };

  // 3x3, stride 1, pad 1: every element is read.
  const ConvGeom dense{2, 5, 7, 3, 3, 1, 1};
  const Tensor clean = testing::random_tensor({2, 5, 7}, 3);
  EXPECT_TRUE(packed_finite(clean, dense));
  for (const float bad : {nan, inf, -inf}) {
    for (const int64_t at : {int64_t{0}, int64_t{34}, int64_t{69}}) {
      Tensor im = clean;
      im[at] = bad;
      EXPECT_FALSE(packed_finite(im, dense)) << bad << " at " << at;
    }
  }

  // 1x1, stride 2 over 5x6: rows 0/2/4 and columns 0/2/4 are read.
  const ConvGeom s2{2, 5, 6, 1, 1, 2, 0};
  const Tensor img = testing::random_tensor({2, 5, 6}, 4);
  for (const auto& [at, read] : {std::pair{int64_t{1 * 6 + 1}, false},    // row 1
                                 std::pair{int64_t{30 + 4 * 6 + 5}, false},  // column 5
                                 std::pair{int64_t{30 + 2 * 6 + 2}, true}}) {
    Tensor im = img;
    im[at] = nan;
    EXPECT_EQ(packed_finite(im, s2), !read) << "NaN at " << at;
  }
  // The same over a 5x34 image (output rows of 17 columns, longer than a
  // panel) and, padded by 1, over 6x6 (rows/columns 1/3/5 are read).
  const ConvGeom s2_wide{1, 5, 34, 1, 1, 2, 0};
  const ConvGeom s2_pad{1, 6, 6, 1, 1, 2, 1};
  for (const auto& [geom, at, read] : {std::tuple{s2_wide, int64_t{2 * 34 + 33}, false},
                                       std::tuple{s2_wide, int64_t{2 * 34 + 32}, true},
                                       std::tuple{s2_pad, int64_t{0}, false},
                                       std::tuple{s2_pad, int64_t{3 * 6 + 5}, true}}) {
    Tensor im = testing::random_tensor({1, geom.in_h, geom.in_w}, 8);
    im[at] = inf;
    EXPECT_EQ(packed_finite(im, geom), !read) << "Inf at " << at << " of " << geom.in_w;
  }

  // 3x3, stride 2, pad 0 over 8x8 reads rows/columns 0-6: the last row
  // never reaches a column.
  const ConvGeom last_row{1, 8, 8, 3, 3, 2, 0};
  Tensor im = testing::random_tensor({1, 8, 8}, 5);
  for (int64_t x = 0; x < 8; ++x) im[7 * 8 + x] = nan;
  EXPECT_TRUE(packed_finite(im, last_row));
  im[6 * 8 + 6] = inf;
  EXPECT_FALSE(packed_finite(im, last_row));
}

TEST(Im2ColPackedTest, NegativeZeroIsFiniteAndKeepsItsBytes) {
  // 1x1, stride 1 over 4x5: 20 columns, so panel 1 has 4 real lanes and
  // 12 padding lanes; with K = 1 the panels are the image then +0.0s.
  const ConvGeom g{1, 4, 5, 1, 1, 1, 0};
  Tensor im = testing::random_tensor({1, 4, 5}, 6);
  im[7] = -0.0f;
  std::vector<float> panels(static_cast<size_t>(packed_b_floats(1, 20)), 1.0f);
  ASSERT_EQ(panels.size(), 32u);
  EXPECT_TRUE(im2col_packed(im.data(), g, panels.data()));
  EXPECT_EQ(std::memcmp(panels.data(), im.data(), 20 * sizeof(float)), 0);
  EXPECT_EQ(std::bit_cast<uint32_t>(panels[7]), 0x80000000u);
  for (size_t j = 20; j < panels.size(); ++j) {
    EXPECT_EQ(std::bit_cast<uint32_t>(panels[j]), 0u) << "padding lane " << j;
  }
}

class ConvGeomSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvGeomSweep, GemmLoweringMatchesNaive) {
  const auto [cin, size, kernel, stride, padding] = GetParam();
  ConvGeom g{cin, size, size, kernel, kernel, stride, padding};
  g.validate();
  const int64_t cout = 3;
  Tensor image = testing::random_tensor({cin, size, size}, 7);
  Tensor weight = testing::random_tensor({cout, cin, kernel, kernel}, 8);
  Tensor col = im2col(image, g);
  Tensor out = matmul(weight.reshape({cout, g.col_rows()}), col)
                   .reshape({cout, g.out_h(), g.out_w()});
  EXPECT_TRUE(out.allclose(naive_conv(image, weight, g), 1e-4f));
}

TEST_P(ConvGeomSweep, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the adjoint, which is exactly what the conv backward needs.
  const auto [cin, size, kernel, stride, padding] = GetParam();
  ConvGeom g{cin, size, size, kernel, kernel, stride, padding};
  g.validate();
  Tensor x = testing::random_tensor({cin, size, size}, 21);
  Tensor y = testing::random_tensor({g.col_rows(), g.col_cols()}, 22);
  const Tensor cx = im2col(x, g);
  const Tensor ay = col2im(y, g);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cx.numel(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * ay[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeomSweep,
                         ::testing::Values(std::tuple{1, 5, 3, 1, 1}, std::tuple{3, 8, 3, 1, 1},
                                           std::tuple{2, 7, 3, 2, 1}, std::tuple{4, 6, 1, 1, 0},
                                           std::tuple{2, 9, 5, 2, 2}, std::tuple{1, 4, 2, 2, 0},
                                           std::tuple{3, 10, 3, 3, 0}));

}  // namespace
}  // namespace capr
