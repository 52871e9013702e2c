#include "verify/shape_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "testutil/testutil.h"
#include "verify/oracle.h"

namespace capr::verify {
namespace {

using testing::AllcloseReport;
using testing::allclose_report;

Tensor random(Rng& rng, Shape shape, float lo = -1.0f, float hi = 1.0f) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t, lo, hi);
  return t;
}

/// Folds one comparison into the sweep result; keeps the first failure.
void record(SweepResult& r, const AllcloseReport& cmp, const std::string& kernel,
            const std::string& config) {
  if (cmp.ok) return;
  ++r.failures;
  if (r.first_failure.empty()) {
    r.first_failure = kernel + " @ " + config + ": " + cmp.message;
  }
}

/// Exact bitwise comparison (memcmp over the float buffers).
AllcloseReport bitwise_report(const Tensor& got, const Tensor& want) {
  AllcloseReport r;
  if (got.shape() != want.shape()) {
    r.ok = false;
    r.message = "shape mismatch: got " + to_string(got.shape()) + ", want " +
                to_string(want.shape());
    return r;
  }
  if (std::memcmp(got.data(), want.data(),
                  static_cast<size_t>(got.numel()) * sizeof(float)) == 0) {
    return r;
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      ++r.mismatches;
      if (r.worst_index < 0) {
        r.worst_index = i;
        r.got = got[i];
        r.want = want[i];
      }
    }
  }
  r.ok = false;
  std::ostringstream os;
  os << r.mismatches << "/" << got.numel() << " elements differ bitwise; first at flat index "
     << r.worst_index << ": got " << r.got << ", want " << r.want;
  r.message = os.str();
  return r;
}

/// Random valid conv geometry (output guaranteed non-empty).
ConvGeom random_geom(Rng& rng) {
  ConvGeom g;
  g.in_channels = 1 + rng.uniform_int(4);
  g.kernel_h = 1 + rng.uniform_int(3);
  g.kernel_w = g.kernel_h;  // layers only support square kernels
  g.stride = 1 + rng.uniform_int(2);
  g.padding = rng.uniform_int(3);
  g.in_h = g.kernel_h + rng.uniform_int(10);
  g.in_w = g.kernel_w + rng.uniform_int(10);
  return g;
}

/// Wider geometry for the panel-layout sweep: C 1-8, H and W 1-33
/// (non-square, panel tails of every width), k 1-5, stride 1-3, padding
/// 0-2; H and W are redrawn until the kernel fits.
ConvGeom random_panel_geom(Rng& rng) {
  ConvGeom g;
  g.in_channels = 1 + rng.uniform_int(8);
  g.kernel_h = 1 + rng.uniform_int(5);
  g.kernel_w = g.kernel_h;
  g.stride = 1 + rng.uniform_int(3);
  g.padding = rng.uniform_int(3);
  do {
    g.in_h = 1 + rng.uniform_int(33);
    g.in_w = 1 + rng.uniform_int(33);
  } while (g.in_h + 2 * g.padding < g.kernel_h || g.in_w + 2 * g.padding < g.kernel_w);
  return g;
}

std::string geom_string(const ConvGeom& g) {
  std::ostringstream os;
  os << "Cin=" << g.in_channels << " H=" << g.in_h << " W=" << g.in_w << " k=" << g.kernel_h
     << " stride=" << g.stride << " pad=" << g.padding;
  return os.str();
}

/// A NaN bit pattern no written float may keep: buffers are pre-filled
/// with it to prove every float is written.
constexpr uint32_t kFill = 0xFFC0DEADu;

/// Half the time plants a NaN, +-Inf or -0.0 at a random position of
/// `im`. Returns the planted value (0 when none); `planted` describes it
/// ("none", or "value@index").
float plant_special(Rng& rng, Tensor& im, std::string& planted) {
  constexpr float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(), -0.0f};
  planted = "none";
  if (rng.uniform() >= 0.5f) return 0.0f;
  const int64_t at = rng.uniform_int(im.numel());
  im[at] = kSpecials[rng.uniform_int(4)];
  planted = std::to_string(im[at]) + "@" + std::to_string(at);
  return im[at];
}

/// One im2col_packed config: a wider random geometry, half the time
/// with a NaN, +-Inf or -0.0 planted at a random input position (read
/// by the windows or not). The panels must equal the pack_b layout of
/// ref_im2col byte for byte, tail padding included, and the return value
/// must equal "some column value is non-finite".
void check_im2col_packed(Rng& rng, SweepResult& r) {
  const ConvGeom g = random_panel_geom(rng);
  Tensor im = random(rng, {g.in_channels, g.in_h, g.in_w});
  std::string planted;
  plant_special(rng, im, planted);
  const std::string config = geom_string(g) + " planted=" + planted;

  const int64_t K = g.col_rows();
  const int64_t N = g.col_cols();
  const Tensor col = ref_im2col(im, g);
  Tensor want({packed_b_floats(K, N)});
  bool want_finite = true;
  for (int64_t k = 0; k < K; ++k) {
    for (int64_t j = 0; j < N; ++j) {
      const float v = col[k * N + j];
      want_finite = want_finite && std::isfinite(v);
      want[(j / kPanelWidth) * K * kPanelWidth + k * kPanelWidth + j % kPanelWidth] = v;
    }
  }
  Tensor got({packed_b_floats(K, N)});
  for (int64_t i = 0; i < got.numel(); ++i) std::memcpy(got.data() + i, &kFill, sizeof(float));
  const bool got_finite = im2col_packed(im.data(), g, got.data());
  record(r, bitwise_report(got, want), "im2col_packed", config);
  if (got_finite != want_finite) {
    ++r.failures;
    if (r.first_failure.empty()) {
      r.first_failure = "im2col_packed finiteness @ " + config + ": got " +
                        (got_finite ? "true" : "false") + ", want " +
                        (want_finite ? "true" : "false");
    }
  }
}

/// Which conv_image cases sweep_direct_conv reached (checked at its end).
struct ConvImageCoverage {
  int64_t geometries = 0;
  bool direct = false, panels_eligible = false, panels_ineligible = false;
  bool fallback_bias = false, reference_bias = false, no_epilogue = false, act[3] = {};
};

/// One conv_image geometry, checked byte for byte under both kernels
/// with and without the offset map (only without when `g` is
/// ineligible) against an independent path: gemm_tiled(W,
/// ref_im2col(im)), which packs W per call, under the tiled kernel when
/// every column value is finite, the strong-zero gemm otherwise; then
/// plain bias and activation loops. W has one all-zero row (a pruned
/// filter), so a non-finite value that skipped the strong-zero fallback
/// shows in the output.
void check_conv_image(Rng& rng, const ConvGeom& g, const Tensor& im, int64_t M,
                      ScratchArena& arena, const std::string& config, SweepResult& r,
                      ConvImageCoverage& cov) {
  const int64_t K = g.col_rows();
  const int64_t N = g.col_cols();
  Tensor w = random(rng, {M, K});
  const int64_t pruned = rng.uniform_int(M);
  for (int64_t k = 0; k < K; ++k) w[pruned * K + k] = 0.0f;
  const PackedA pa = pack_a_full(w.data(), M, K, resolve_gemm_config(GemmVariant::kNN, M, K, N));
  const Tensor bias = random(rng, {M});
  const int64_t shape = rng.uniform_int(4);  // none, bias, activation, both
  GemmEpilogue ep;
  if (shape & 1) ep.bias_row = bias.data();
  if (shape & 2) ep.act = 1 + rng.uniform_int(2);
  ep.alpha = 0.1f;
  const Tensor col = ref_im2col(im, g);
  bool finite = true;
  for (int64_t i = 0; i < col.numel(); ++i) finite = finite && std::isfinite(col[i]);
  const DirectConv none;
  const DirectConv map = direct_conv_eligible(g) ? direct_conv_map(g) : DirectConv{};
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    const bool tiled = kernel == GemmKernel::kTiled;
    Tensor want({M, N});
    if (tiled && finite) {
      gemm_tiled(w.data(), col.data(), want.data(), M, K, N);
    } else {
      gemm(w.data(), col.data(), want.data(), M, K, N);
    }
    for (int64_t i = 0; ep.bias_row != nullptr && i < M; ++i) {
      for (int64_t j = 0; j < N; ++j) want[i * N + j] += ep.bias_row[i];
    }
    for (int64_t i = 0; i < want.numel(); ++i) {
      if (ep.act == 1) want[i] = want[i] > 0.0f ? want[i] : 0.0f;
      if (ep.act == 2) want[i] = want[i] > 0.0f ? want[i] : ep.alpha * want[i];
    }
    for (const DirectConv* m : {&none, &map}) {
      if (m == &map && map.run == 0) break;  // ineligible: `none` was the only map
      Tensor got({M, N});
      for (int64_t i = 0; i < got.numel(); ++i) std::memcpy(got.data() + i, &kFill, sizeof(float));
      conv_image(pa, w.data(), im.data(), g, *m, arena, 0, got.data(), ep);
      record(r, bitwise_report(got, want), "conv_image",
             config + " kernel=" + to_string(kernel) + " map=" + (m->run != 0 ? "direct" : "none") +
                 " epilogue=" + std::to_string(shape) + " act=" + std::to_string(ep.act));
      if (tiled && finite) {
        (m->run != 0 ? cov.direct
                     : map.run != 0 ? cov.panels_eligible : cov.panels_ineligible) = true;
      }
    }
    (tiled ? cov.fallback_bias : cov.reference_bias) |=
        (!tiled || !finite) && ep.bias_row != nullptr;
  }
  cov.no_epilogue = cov.no_epilogue || shape == 0;
  cov.act[ep.act] = true;
  ++cov.geometries;
}

/// A random conv geometry direct_conv_eligible accepts, built from its
/// output: Wout = run * (odd multiplier for runs 8 and 4, so the run is
/// the largest that divides it), Hout a multiple of 16 / gcd(Wout, 16),
/// then H and W chosen to give that output for the drawn kernel, stride
/// and padding. `big` draws the large shapes of sweep_direct_conv.
ConvGeom random_direct_geom(Rng& rng, bool big) {
  ConvGeom g;
  g.kernel_h = 1 + rng.uniform_int(5);
  g.stride = 1 + rng.uniform_int(3);
  g.padding = rng.uniform_int(3);
  if (rng.uniform() < 0.1f) {  // the 1x1 stride-2 pad-0 downsampling conv
    g.kernel_h = 1;
    g.stride = 2;
    g.padding = 0;
  }
  if (big) g.kernel_h = 3;
  g.kernel_w = g.kernel_h;
  const int64_t run = int64_t(16) >> rng.uniform_int(3);  // 16, 8 or 4
  const int64_t ow = run == 16 ? 16 * (1 + rng.uniform_int(2)) : run * (1 + 2 * rng.uniform_int(2));
  const int64_t row_mult = 16 / std::min<int64_t>(run, 16);
  // Large shapes get N >= 256, so M*K*N clears the split-M threshold.
  const int64_t oh = row_mult * (big ? 16 + rng.uniform_int(8) : 1 + rng.uniform_int(3));
  g.in_channels = big ? 29 + rng.uniform_int(4) : 1 + rng.uniform_int(6);
  // Extent e gives output (e + 2p - k) / s + 1 = o for e in
  // [(o-1)s + k - 2p, (o-1)s + k - 2p + s - 1]; shrink the padding until
  // that range starts at 1 or more for both outputs.
  while (g.padding > 0 && (std::min(oh, ow) - 1) * g.stride + g.kernel_h - 2 * g.padding < 1) {
    --g.padding;
  }
  const auto extent = [&](int64_t o) {
    return (o - 1) * g.stride + g.kernel_h - 2 * g.padding + rng.uniform_int(g.stride);
  };
  g.in_h = extent(oh);
  g.in_w = extent(ow);
  return g;
}

/// Pins the worker count for one scope; restores the previous setting.
struct ThreadScope {
  int saved;
  explicit ThreadScope(int n) : saved(num_threads()) { set_num_threads(n); }
  ~ThreadScope() { set_num_threads(saved); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;
};

}  // namespace

SweepResult sweep_gemm(const SweepOptions& opts) {
  Rng rng(opts.seed);
  SweepResult r;
  for (int cfg = 0; cfg < opts.configs; ++cfg) {
    const int64_t m = 1 + rng.uniform_int(48);
    const int64_t k = 1 + rng.uniform_int(48);
    const int64_t n = 1 + rng.uniform_int(48);
    std::ostringstream cs;
    cs << "M=" << m << " K=" << k << " N=" << n;
    const std::string config = cs.str();

    const Tensor a = random(rng, {m, k});
    const Tensor b = random(rng, {k, n});
    record(r, allclose_report(matmul(a, b), ref_matmul(a, b), opts.atol, opts.rtol), "matmul",
           config);

    const Tensor bt = random(rng, {n, k});
    record(r, allclose_report(matmul_nt(a, bt), ref_matmul_nt(a, bt), opts.atol, opts.rtol),
           "matmul_nt", config);

    const Tensor at = random(rng, {k, m});
    record(r, allclose_report(matmul_tn(at, b), ref_matmul_tn(at, b), opts.atol, opts.rtol),
           "matmul_tn", config);

    // Raw kernel, accumulate path: both start from the same random C.
    Tensor c_opt = random(rng, {m, n});
    Tensor c_ref = c_opt;
    gemm(a.data(), b.data(), c_opt.data(), m, k, n, /*accumulate=*/true);
    ref_gemm(a.data(), b.data(), c_ref.data(), m, k, n, /*accumulate=*/true);
    record(r, allclose_report(c_opt, c_ref, opts.atol, opts.rtol), "gemm(accumulate)", config);

    ++r.configs_run;
  }
  return r;
}

std::vector<GemmShape> remainder_gemm_shapes() {
  // MR=6, NR=16, KC=256 (gemm_tiled.cpp). One value either side of each
  // tile boundary plus 1 and a prime that is coprime to every tile size.
  const int64_t mn[] = {1, 5, 6, 7, 15, 16, 17, 31};
  const int64_t ks[] = {1, 5, 127, 255, 256, 257};
  std::vector<GemmShape> shapes;
  shapes.reserve(sizeof(mn) / sizeof(mn[0]) * sizeof(ks) / sizeof(ks[0]) *
                 sizeof(mn) / sizeof(mn[0]));
  for (int64_t m : mn) {
    for (int64_t k : ks) {
      for (int64_t n : mn) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

SweepResult sweep_gemm_tiled(const std::vector<GemmShape>& shapes, const SweepOptions& opts) {
  Rng rng(opts.seed);
  SweepResult r;
  for (const GemmShape& sh : shapes) {
    std::ostringstream cs;
    cs << "M=" << sh.m << " K=" << sh.k << " N=" << sh.n;
    const std::string config = cs.str();

    const Tensor a = random(rng, {sh.m, sh.k});
    const Tensor b = random(rng, {sh.k, sh.n});
    Tensor c_tiled({sh.m, sh.n});
    Tensor c_ref({sh.m, sh.n});

    gemm_tiled(a.data(), b.data(), c_tiled.data(), sh.m, sh.k, sh.n);
    gemm(a.data(), b.data(), c_ref.data(), sh.m, sh.k, sh.n);
    record(r, allclose_report(c_tiled, c_ref, opts.atol, opts.rtol), "gemm_tiled", config);

    // Accumulate path: both kernels fold into the same random C.
    Tensor acc_tiled = random(rng, {sh.m, sh.n});
    Tensor acc_ref = acc_tiled;
    gemm_tiled(a.data(), b.data(), acc_tiled.data(), sh.m, sh.k, sh.n, /*accumulate=*/true);
    gemm(a.data(), b.data(), acc_ref.data(), sh.m, sh.k, sh.n, /*accumulate=*/true);
    record(r, allclose_report(acc_tiled, acc_ref, opts.atol, opts.rtol),
           "gemm_tiled(accumulate)", config);

    // NT: tiled reads B as [N, K] transposed; reference needs it packed
    // back to [K, N] row-major.
    const Tensor bt = random(rng, {sh.n, sh.k});
    Tensor bt_as_b({sh.k, sh.n});
    for (int64_t j = 0; j < sh.n; ++j) {
      for (int64_t k = 0; k < sh.k; ++k) bt_as_b[k * sh.n + j] = bt[j * sh.k + k];
    }
    gemm_tiled_nt(a.data(), bt.data(), c_tiled.data(), sh.m, sh.k, sh.n);
    gemm(a.data(), bt_as_b.data(), c_ref.data(), sh.m, sh.k, sh.n);
    record(r, allclose_report(c_tiled, c_ref, opts.atol, opts.rtol), "gemm_tiled_nt", config);

    // TN: tiled reads A as [K, M] transposed.
    const Tensor at = random(rng, {sh.k, sh.m});
    gemm_tiled_tn(at.data(), b.data(), c_tiled.data(), sh.m, sh.k, sh.n);
    gemm_tn_ref(at.data(), b.data(), c_ref.data(), sh.m, sh.k, sh.n);
    record(r, allclose_report(c_tiled, c_ref, opts.atol, opts.rtol), "gemm_tiled_tn", config);

    ++r.configs_run;
  }
  return r;
}

SweepResult sweep_im2col(const SweepOptions& opts) {
  Rng rng(opts.seed);
  SweepResult r;
  for (int cfg = 0; cfg < opts.configs; ++cfg) {
    const ConvGeom g = random_geom(rng);
    const std::string config = geom_string(g);

    const Tensor im = random(rng, {g.in_channels, g.in_h, g.in_w});
    const Tensor col_opt = im2col(im, g);
    const Tensor col_ref = ref_im2col(im, g);
    // Pure data movement: the optimized path must match exactly.
    record(r, allclose_report(col_opt, col_ref, 0.0f, 0.0f), "im2col", config);

    const Tensor y = random(rng, {g.col_rows(), g.col_cols()});
    const Tensor im_opt = col2im(y, g);
    const Tensor im_ref = ref_col2im(y, g);
    record(r, allclose_report(im_opt, im_ref, opts.atol, opts.rtol), "col2im", config);

    // Adjoint identity: <im2col(x), y> == <x, col2im(y)>. Catches index
    // bugs that a direct comparison against a same-shaped-but-wrong
    // reference could miss.
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < col_ref.numel(); ++i) {
      lhs += static_cast<double>(col_opt[i]) * y[i];
    }
    for (int64_t i = 0; i < im.numel(); ++i) {
      rhs += static_cast<double>(im[i]) * im_opt[i];
    }
    const double scale = std::max({std::abs(lhs), std::abs(rhs), 1.0});
    if (std::abs(lhs - rhs) > 1e-4 * scale) {
      ++r.failures;
      if (r.first_failure.empty()) {
        std::ostringstream os;
        os << "im2col/col2im adjoint @ " << config << ": <im2col(x),y>=" << lhs
           << " but <x,col2im(y)>=" << rhs;
        r.first_failure = os.str();
      }
    }
    check_im2col_packed(rng, r);
    ++r.configs_run;
  }
  return r;
}

SweepResult sweep_direct_conv(const SweepOptions& opts) {
  // Pinned so the large shapes split their row blocks across workers.
  const ThreadScope threads(2);
  Rng rng(opts.seed);
  SweepResult r;
  const auto fail = [&](const std::string& what) {
    ++r.failures;
    if (r.first_failure.empty()) r.first_failure = what;
  };
  // Coverage of the cases the sweep promises, checked at the end.
  bool runs[3] = {}, strides[3] = {}, pads[3] = {};
  bool one_by_one = false, mblocks = false, kblocks = false, mr_tail = false, split = false;
  bool read_bad = false, unread_bad = false, neg_zero = false;
  ConvImageCoverage cov;
  ScratchArena arena;
  arena.prepare(1);
  for (int cfg = 0; cfg < opts.configs; ++cfg) {
    const bool big = cfg % 10 == 9;
    const ConvGeom g = random_direct_geom(rng, big);
    const int64_t M = big ? 73 + rng.uniform_int(24) : 1 + rng.uniform_int(20);
    const int64_t K = g.col_rows();
    const int64_t N = g.col_cols();
    Tensor im = random(rng, {g.in_channels, g.in_h, g.in_w});
    std::string planted;
    const float special = plant_special(rng, im, planted);
    std::ostringstream cs;
    cs << geom_string(g) << " M=" << M << " planted=" << planted;
    const std::string config = cs.str();
    if (!direct_conv_eligible(g)) {
      fail("sweep drew an ineligible geometry @ " + config);
      continue;
    }
    const Tensor col = ref_im2col(im, g);
    bool want_finite = true;
    for (int64_t i = 0; i < col.numel(); ++i) want_finite = want_finite && std::isfinite(col[i]);
    std::vector<float> panels(static_cast<size_t>(packed_b_floats(K, N)));
    std::vector<float> planes(static_cast<size_t>(direct_plane_floats(g)));
    for (float& v : planes) std::memcpy(&v, &kFill, sizeof(float));
    const bool panels_finite = im2col_packed(im.data(), g, panels.data());
    const bool planes_finite = fill_direct_planes(im.data(), g, planes.data());
    if (planes_finite != want_finite || panels_finite != want_finite) {
      fail("direct finiteness @ " + config + ": planes " + (planes_finite ? "true" : "false") +
           ", panels " + (panels_finite ? "true" : "false") + ", want " +
           (want_finite ? "true" : "false"));
    }
    for (const float& v : planes) {
      if (std::memcmp(&v, &kFill, sizeof(float)) == 0) {
        fail("fill_direct_planes left a float unwritten @ " + config);
        break;
      }
    }
    if (!std::isfinite(special)) (want_finite ? unread_bad : read_bad) = true;
    neg_zero = neg_zero || (planted != "none" && special == 0.0f);

    if (want_finite) {
      const GemmTuneConfig gc = resolve_gemm_config(GemmVariant::kNN, M, K, N);
      mblocks = mblocks || M > gc.mc;
      kblocks = kblocks || K > gc.kc;
      mr_tail = mr_tail || M % gc.mr != 0;
      split = split || (gc.strategy == GemmParallel::kSplitM && M > gc.mc);
    }
    const int64_t run = direct_conv_run(g);
    runs[run == 16 ? 0 : run == 8 ? 1 : 2] = true;
    if (g.stride <= 3) strides[g.stride - 1] = true;
    if (g.padding <= 2) pads[g.padding] = true;
    one_by_one = one_by_one || (g.kernel_h == 1 && g.stride == 2 && g.padding == 0);
    check_conv_image(rng, g, im, M, arena, config, r, cov);

    // A wider, mostly ineligible geometry beside each eligible one.
    const ConvGeom pg = random_panel_geom(rng);
    Tensor pim = random(rng, {pg.in_channels, pg.in_h, pg.in_w});
    std::string pplanted;
    plant_special(rng, pim, pplanted);
    const int64_t pm = 1 + rng.uniform_int(20);
    check_conv_image(rng, pg, pim, pm, arena,
                     geom_string(pg) + " M=" + std::to_string(pm) + " planted=" + pplanted, r,
                     cov);
    ++r.configs_run;
  }
  const std::pair<bool, const char*> covered[] = {
      {runs[0] && runs[1] && runs[2], "1-, 2- and 4-run panels"},
      {strides[0] && strides[1] && strides[2], "strides 1-3"},
      {pads[0] && pads[1] && pads[2], "pads 0-2"},
      {one_by_one, "a 1x1 stride-2 pad-0 conv"},
      {mblocks, "M > 72"},
      {kblocks, "K > 256"},
      {mr_tail, "an MR tail"},
      {split, "a split-M GEMM"},
      {read_bad, "a non-finite value some tap reads"},
      {unread_bad, "a non-finite value no tap reads"},
      {neg_zero, "a planted -0.0"},
      {cov.geometries >= 2 * static_cast<int64_t>(opts.configs), "conv_image on every geometry"},
      {cov.direct, "conv_image on the direct path"},
      {cov.panels_eligible, "conv_image on panels for an eligible geometry"},
      {cov.panels_ineligible, "conv_image on panels for an ineligible geometry"},
      {cov.fallback_bias, "conv_image's non-finite fallback with a bias"},
      {cov.reference_bias, "conv_image under the reference kernel with a bias"},
      {cov.no_epilogue, "conv_image without an epilogue"},
      {cov.act[0] && cov.act[1] && cov.act[2], "conv_image with no activation, ReLU and LeakyReLU"},
  };
  for (const auto& [hit, what] : covered) {
    if (!hit) fail(std::string("sweep_direct_conv never reached ") + what);
  }
  return r;
}

SweepResult sweep_conv2d(const SweepOptions& opts) {
  Rng rng(opts.seed);
  SweepResult r;
  for (int cfg = 0; cfg < opts.configs; ++cfg) {
    const ConvGeom g = random_geom(rng);
    const int64_t n = 1 + rng.uniform_int(3);
    const int64_t cout = 1 + rng.uniform_int(5);
    const bool bias = rng.uniform() < 0.5f;
    std::ostringstream cs;
    cs << "N=" << n << " Cout=" << cout << " bias=" << bias << " " << geom_string(g);
    const std::string config = cs.str();

    nn::Conv2d conv(g.in_channels, cout, g.kernel_h, g.stride, g.padding, bias);
    rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
    if (bias) rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
    const Tensor x = random(rng, {n, g.in_channels, g.in_h, g.in_w});

    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor y_ref = ref_conv2d_forward(x, conv.weight().value,
                                            bias ? conv.bias().value : Tensor(), g.stride,
                                            g.padding);
    record(r, allclose_report(y, y_ref, opts.atol, opts.rtol), "conv2d.forward", config);

    const Tensor go = random(rng, y.shape());
    for (nn::Param* p : conv.params()) p->zero_grad();
    const Tensor gx = conv.backward(go);
    const RefConvGrads ref =
        ref_conv2d_backward(x, conv.weight().value, bias, g.stride, g.padding, go);
    record(r, allclose_report(gx, ref.input, opts.atol, opts.rtol), "conv2d.grad_input",
           config);
    record(r, allclose_report(conv.weight().grad, ref.weight, opts.atol, opts.rtol),
           "conv2d.grad_weight", config);
    if (bias) {
      record(r, allclose_report(conv.bias().grad, ref.bias, opts.atol, opts.rtol),
             "conv2d.grad_bias", config);
    }
    ++r.configs_run;
  }
  return r;
}

SweepResult sweep_conv2d_determinism(const SweepOptions& opts) {
  Rng rng(opts.seed);
  SweepResult r;
  for (int cfg = 0; cfg < opts.configs; ++cfg) {
    const ConvGeom g = random_geom(rng);
    const int64_t n = 2 + rng.uniform_int(6);  // enough rows to actually split
    const int64_t cout = 1 + rng.uniform_int(5);
    const bool bias = rng.uniform() < 0.5f;
    std::ostringstream cs;
    cs << "N=" << n << " Cout=" << cout << " bias=" << bias << " " << geom_string(g);
    const std::string config = cs.str();

    nn::Conv2d conv(g.in_channels, cout, g.kernel_h, g.stride, g.padding, bias);
    rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
    if (bias) rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
    const Tensor x = random(rng, {n, g.in_channels, g.in_h, g.in_w});

    Tensor y1, gx1, gw1, gb1;
    {
      ThreadScope threads(1);
      for (nn::Param* p : conv.params()) p->zero_grad();
      y1 = conv.forward(x, true);
      const Tensor go = random(rng, y1.shape());
      gx1 = conv.backward(go);
      gw1 = conv.weight().grad;
      if (bias) gb1 = conv.bias().grad;

      ThreadScope threads_n(opts.threads_high);
      for (nn::Param* p : conv.params()) p->zero_grad();
      const Tensor yn = conv.forward(x, true);
      const Tensor gxn = conv.backward(go);

      record(r, bitwise_report(yn, y1), "conv2d.forward determinism", config);
      record(r, bitwise_report(gxn, gx1), "conv2d.grad_input determinism", config);
      // Weight/bias grads cross a per-thread reduction: reassociation may
      // move the last ulps, so these are tight-tolerance, not bitwise.
      record(r, allclose_report(conv.weight().grad, gw1, 1e-5f, 1e-5f),
             "conv2d.grad_weight determinism", config);
      if (bias) {
        record(r, allclose_report(conv.bias().grad, gb1, 1e-5f, 1e-5f),
               "conv2d.grad_bias determinism", config);
      }
    }
    ++r.configs_run;
  }
  return r;
}

}  // namespace capr::verify
