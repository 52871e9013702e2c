#include "tensor/im2col.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm_tiled.h"

namespace capr {

void ConvGeom::validate() const {
  if (in_channels <= 0 || in_h <= 0 || in_w <= 0 || kernel_h <= 0 || kernel_w <= 0 ||
      stride <= 0 || padding < 0) {
    throw std::invalid_argument("ConvGeom: non-positive extent");
  }
  if (out_h() <= 0 || out_w() <= 0) {
    throw std::invalid_argument("ConvGeom: kernel " + std::to_string(kernel_h) + "x" +
                                std::to_string(kernel_w) + " does not fit input " +
                                std::to_string(in_h) + "x" + std::to_string(in_w) +
                                " with padding " + std::to_string(padding));
  }
}

void im2col(const float* im, const ConvGeom& g, float* col) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* chan = im + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out = col + row * (oh * ow);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(out + y * ow, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* irow = chan + iy * g.in_w;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.padding;
            out[y * ow + x] = (ix >= 0 && ix < g.in_w) ? irow[ix] : 0.0f;
          }
        }
      }
    }
  }
}

namespace {

/// 1 when `v` is NaN or +-Inf (every exponent bit set), else 0. Branch
/// free, so OR-reducing it over a run vectorises.
inline uint32_t nonfinite_bit(float v) {
  constexpr uint32_t kExp = 0x7f800000u;
  return static_cast<uint32_t>((std::bit_cast<uint32_t>(v) & kExp) == kExp);
}

/// True when every index of an input axis of extent `in` is read by some
/// output position: the windows [o*stride - pad, o*stride - pad + k)
/// leave no gap (stride <= k) and the last one reaches index in - 1.
bool axis_fully_read(int64_t in, int64_t k, int64_t stride, int64_t pad, int64_t out) {
  return stride <= k && (out - 1) * stride + k - 1 - pad >= in - 1;
}

/// Copies n <= kPanelWidth floats with fixed-size moves: a panel row is
/// at most 64 bytes, too short to pay for a library call per run.
inline void copy_lanes(float* d, const float* src, int64_t n) {
  static_assert(kPanelWidth == 16, "copy_lanes/zero_lanes split a 16-lane row");
  if (n == 16) {
    std::memcpy(d, src, 16 * sizeof(float));
    return;
  }
  for (const int64_t chunk : {8, 4, 2}) {
    if ((n & chunk) != 0) {
      std::memcpy(d, src, static_cast<size_t>(chunk) * sizeof(float));
      d += chunk;
      src += chunk;
    }
  }
  if ((n & 1) != 0) *d = *src;
}

/// Zeroes n <= kPanelWidth floats, like copy_lanes.
inline void zero_lanes(float* d, int64_t n) {
  if (n == 16) {
    std::memset(d, 0, 16 * sizeof(float));
    return;
  }
  for (const int64_t chunk : {8, 4, 2}) {
    if ((n & chunk) != 0) {
      std::memset(d, 0, static_cast<size_t>(chunk) * sizeof(float));
      d += chunk;
    }
  }
  if ((n & 1) != 0) *d = 0.0f;
}

/// A run of panel lanes [lane, lane + len) that lies on one output row:
/// lane lane + t reads input (iy0 + kh, ix0 + kw + t * stride).
struct LaneRun {
  int64_t iy0, ix0, lane, len;
};

/// Writes every panel in panel order: for each 16-wide column panel, the
/// lane runs are worked out once, then each (c, kh, kw) row copies its
/// in-bounds input span and zeroes the padding around it, so the panel
/// buffer is written front to back. kStride is the conv stride when it
/// is a compile-time 1 or 2 (the strided loads then vectorise as
/// loads and shuffles), 0 to read g.stride; kCheck OR-reduces the
/// finiteness of every value read. Returns the OR of nonfinite_bit over
/// the values read (0 when !kCheck).
template <int kStride, bool kCheck>
uint32_t fill_panels(const float* im, const ConvGeom& g, float* panels) {
  const int64_t ow = g.out_w();
  const int64_t cols = g.out_h() * ow;
  const int64_t plane = g.in_h * g.in_w;
  const int64_t s = kStride > 0 ? kStride : g.stride;
  uint32_t bad = 0;
  LaneRun runs[kPanelWidth];
  int64_t y = 0, x = 0;  // output position of the panel's first column
  for (int64_t j0 = 0; j0 < cols; j0 += kPanelWidth) {
    const int64_t w = std::min(kPanelWidth, cols - j0);
    int nruns = 0;
    for (int64_t lane = 0; lane < w;) {
      const int64_t len = std::min(ow - x, w - lane);
      runs[nruns++] = {y * s - g.padding, x * s - g.padding, lane, len};
      lane += len;
      x += len;
      if (x == ow) {
        x = 0;
        ++y;
      }
    }
    float* dst = panels + j0 * g.col_rows();
    for (int64_t c = 0; c < g.in_channels; ++c) {
      const float* chan = im + c * plane;
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, dst += kPanelWidth) {
          for (int r = 0; r < nruns; ++r) {
            const LaneRun& run = runs[r];
            float* d = dst + run.lane;
            const int64_t iy = run.iy0 + kh;
            if (iy < 0 || iy >= g.in_h) {
              zero_lanes(d, run.len);
              continue;
            }
            // Lanes [lo, hi) land inside the row; at most ceil(pad /
            // stride) lanes fall off either end, so the trims are short.
            const float* row = chan + iy * g.in_w;
            const int64_t x0 = run.ix0 + kw;
            int64_t lo = 0, hi = run.len;
            while (lo < hi && x0 + lo * s < 0) ++lo;
            while (hi > lo && x0 + (hi - 1) * s >= g.in_w) --hi;
            zero_lanes(d, lo);
            if (kStride == 1 && !kCheck) {
              copy_lanes(d + lo, row + x0 + lo, hi - lo);
            } else {
              for (int64_t t = lo; t < hi; ++t) {
                const float v = row[x0 + t * s];
                if (kCheck) bad |= nonfinite_bit(v);
                d[t] = v;
              }
            }
            zero_lanes(d + hi, run.len - hi);
          }
          zero_lanes(dst + w, kPanelWidth - w);
        }
      }
    }
  }
  return bad;
}

/// fill_panels for a strided conv without padding: every window lies
/// inside the image, so lane j of a panel row reads
/// channel[kh * W + kw + off[j]] with no bounds to trim. One indexed
/// gather per row beats fill_panels' per-run set-up when output rows are
/// shorter than a panel (several short runs per panel row). Returns the
/// OR of nonfinite_bit over the values read (0 when !kCheck).
template <bool kCheck>
uint32_t gather_panels(const float* im, const ConvGeom& g, float* panels) {
  const int64_t ow = g.out_w();
  const int64_t cols = g.out_h() * ow;
  const int64_t plane = g.in_h * g.in_w;
  uint32_t bad = 0;
  int64_t off[kPanelWidth];
  int64_t y = 0, x = 0;  // output position of the next column
  for (int64_t j0 = 0; j0 < cols; j0 += kPanelWidth) {
    const int64_t w = std::min(kPanelWidth, cols - j0);
    for (int64_t j = 0; j < w; ++j) {
      off[j] = (y * g.in_w + x) * g.stride;
      if (++x == ow) {
        x = 0;
        ++y;
      }
    }
    float* dst = panels + j0 * g.col_rows();
    for (int64_t c = 0; c < g.in_channels; ++c) {
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, dst += kPanelWidth) {
          const float* base = im + c * plane + kh * g.in_w + kw;
          for (int64_t j = 0; j < w; ++j) {
            const float v = base[off[j]];
            if (kCheck) bad |= nonfinite_bit(v);
            dst[j] = v;
          }
          zero_lanes(dst + w, kPanelWidth - w);
        }
      }
    }
  }
  return bad;
}

}  // namespace

bool im2col_packed(const float* im, const ConvGeom& g, float* panels) {
  // When the windows read every input element, the column values that
  // are non-finite are exactly the input's: one unit-stride scan decides
  // the predicate and the copy runs unchecked. Otherwise (a stride that
  // skips rows or columns) only the gathered values may count, so the
  // check rides along in the gather.
  const bool all_read = axis_fully_read(g.in_h, g.kernel_h, g.stride, g.padding, g.out_h()) &&
                        axis_fully_read(g.in_w, g.kernel_w, g.stride, g.padding, g.out_w());
  uint32_t bad = 0;
  if (all_read) {
    const int64_t n = g.in_channels * g.in_h * g.in_w;
    for (int64_t i = 0; i < n; ++i) bad |= nonfinite_bit(im[i]);
  }
  if (g.stride == 1) {
    // Stride 1 reads every element.
    (void)fill_panels<1, false>(im, g, panels);
  } else if (g.padding == 0 && g.out_w() < kPanelWidth) {
    bad |= all_read ? gather_panels<false>(im, g, panels) : gather_panels<true>(im, g, panels);
  } else if (g.stride == 2) {
    bad |= all_read ? fill_panels<2, false>(im, g, panels) : fill_panels<2, true>(im, g, panels);
  } else {
    bad |= all_read ? fill_panels<0, false>(im, g, panels) : fill_panels<0, true>(im, g, panels);
  }
  return bad == 0;
}

namespace {

/// Zeroes n floats with inlined fixed-size stores: the plane borders
/// are a few floats per row, too short to pay for a library call each.
inline void zero_floats(float* d, int64_t n) {
  for (; n >= kPanelWidth; n -= kPanelWidth, d += kPanelWidth) zero_lanes(d, kPanelWidth);
  zero_lanes(d, n);
}

/// Phase counts and plane extent of the direct lowering of `g`.
struct PlaneDims {
  int64_t ph, pw;  // phases per axis: min(stride, kernel)
  int64_t h, w;    // one phase plane

  explicit PlaneDims(const ConvGeom& g)
      : ph(std::min(g.stride, g.kernel_h)),
        pw(std::min(g.stride, g.kernel_w)),
        h(g.out_h() + (g.kernel_h - 1) / g.stride),
        w(g.out_w() + (g.kernel_w - 1) / g.stride) {}
};

/// fill_direct_planes body; kStride is the stride when it is a
/// compile-time 1 or 2 (the row copies then vectorise), 0 to read it
/// from g. Returns the OR of nonfinite_bit over the values a tap reads.
template <int kStride>
uint32_t fill_planes(const float* im, const ConvGeom& g, float* planes) {
  const int64_t s = kStride > 0 ? kStride : g.stride;
  const int64_t pad = g.padding;
  const PlaneDims d(g);
  uint32_t bad = 0;
  float* dst = planes;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* chan = im + c * g.in_h * g.in_w;
    for (int64_t ry = 0; ry < d.ph; ++ry) {
      // Row a of phase ry is read by tap kh = ry + s*q at output row
      // a - q, for some q <= (Kh-1-ry)/s: exactly when a < read_rows.
      const int64_t read_rows = g.out_h() + (g.kernel_h - 1 - ry) / s;
      for (int64_t rx = 0; rx < d.pw; ++rx) {
        const int64_t read_cols = g.out_w() + (g.kernel_w - 1 - rx) / s;
        // Plane columns [lo, hi) hold input columns rx + s*b - pad in
        // [0, W); the rest is padding.
        const int64_t lo = std::min(d.w, rx >= pad ? 0 : (pad - rx + s - 1) / s);
        const int64_t hi = std::clamp<int64_t>((g.in_w + pad - rx + s - 1) / s, lo, d.w);
        const int64_t check_hi = std::min(hi, read_cols);
        for (int64_t a = 0; a < d.h; ++a, dst += d.w) {
          const int64_t iy = ry + s * a - pad;
          if (iy < 0 || iy >= g.in_h) {
            zero_floats(dst, d.w);
            continue;
          }
          // Columns [lo, mid) are copied and checked, [mid, hi) only
          // copied (a row or columns no tap reads).
          const int64_t mid = a < read_rows ? check_hi : lo;
          const float* row = chan + iy * g.in_w;
          zero_floats(dst, lo);
          for (int64_t b = lo; b < mid; ++b) {
            const float v = row[rx + s * b - pad];
            bad |= nonfinite_bit(v);
            dst[b] = v;
          }
          for (int64_t b = mid; b < hi; ++b) dst[b] = row[rx + s * b - pad];
          zero_floats(dst + hi, d.w - hi);
        }
      }
    }
  }
  return bad;
}

}  // namespace

int64_t direct_conv_run(const ConvGeom& g) {
  if (g.col_cols() % kPanelWidth != 0) return 0;
  for (const int64_t run : {16, 8, 4}) {
    if (g.out_w() % run == 0) return run;
  }
  return 0;
}

int64_t direct_plane_floats(const ConvGeom& g) {
  const PlaneDims d(g);
  return g.in_channels * d.ph * d.pw * d.h * d.w;
}

DirectConv direct_conv_map(const ConvGeom& g) {
  static_assert(kPanelWidth == 16, "run widths 16/8/4 tile a 16-lane panel row");
  DirectConv m;
  m.run = direct_conv_run(g);
  if (m.run == 0) {
    throw std::invalid_argument("direct_conv_map: output " + std::to_string(g.out_h()) + "x" +
                                std::to_string(g.out_w()) + " has no direct lowering");
  }
  const PlaneDims d(g);
  const int64_t s = g.stride;
  m.out_h = g.out_h();
  m.out_w = g.out_w();
  m.plane_w = d.w;
  m.off.reserve(static_cast<size_t>(g.col_rows()));
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t plane = (c * d.ph + kh % s) * d.pw + kw % s;
        m.off.push_back(plane * d.h * d.w + (kh / s) * d.w + kw / s);
      }
    }
  }
  return m;
}

bool fill_direct_planes(const float* im, const ConvGeom& g, float* planes) {
  uint32_t bad = 0;
  if (g.stride == 1) {
    bad = fill_planes<1>(im, g, planes);
  } else if (g.stride == 2) {
    bad = fill_planes<2>(im, g, planes);
  } else {
    bad = fill_planes<0>(im, g, planes);
  }
  return bad == 0;
}

void col2im(const float* col, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* chan = im + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = col + row * (oh * ow);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          float* irow = chan + iy * g.in_w;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.padding;
            if (ix >= 0 && ix < g.in_w) irow[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image, const ConvGeom& g) {
  g.validate();
  const Shape want{g.in_channels, g.in_h, g.in_w};
  if (image.shape() != want) {
    throw std::invalid_argument("im2col: image shape " + to_string(image.shape()) +
                                " does not match geometry " + to_string(want));
  }
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(image.data(), g, col.data());
  return col;
}

Tensor col2im(const Tensor& col, const ConvGeom& g) {
  g.validate();
  const Shape want{g.col_rows(), g.col_cols()};
  if (col.shape() != want) {
    throw std::invalid_argument("col2im: column shape " + to_string(col.shape()) +
                                " does not match geometry " + to_string(want));
  }
  Tensor im({g.in_channels, g.in_h, g.in_w});
  col2im(col.data(), g, im.data());
  return im;
}

}  // namespace capr
