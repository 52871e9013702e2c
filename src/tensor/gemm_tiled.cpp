#include "tensor/gemm_tiled.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/gemm_tune.h"
#include "tensor/parallel.h"

namespace capr {
namespace {

// Panel width of the packed-B layout; fixed (it is baked into
// im2col_packed and every committed PackedB), so the micro-kernel's NR
// is not configurable. The micro-kernel height is: micro_kernel_t<kMR>
// is instantiated for every legal_gemm_mr() value, and the config a
// call runs (resolve_gemm_config, or the one a PackedA records) picks
// one.
constexpr int64_t NR = 16;

static_assert(NR == kPanelWidth, "packed-B layout width must match the micro-kernel NR");

std::atomic<GemmKernel> g_kernel{GemmKernel::kTiled};

/// 1 when `v` is NaN or +-Inf (every exponent bit set), else 0. Branch
/// free, so OR-reducing it over a copy loop vectorises.
inline uint32_t nonfinite_bit(float v) {
  constexpr uint32_t kExp = 0x7f800000u;
  return static_cast<uint32_t>((std::bit_cast<uint32_t>(v) & kExp) == kExp);
}

/// Packs b into NR-wide column panels: panel p holds columns
/// [p*NR, p*NR+NR) for every k, k-major, short panels zero-padded.
/// Element (k, j) of the logical [K, N] operand lives at b[k*rs + j*cs].
/// Returns false if any packed value is non-finite (strong-zero fallback).
bool pack_b(const float* b, int64_t rs, int64_t cs, int64_t K, int64_t N, float* out) {
  uint32_t bad = 0;
  for (int64_t p = 0; p * NR < N; ++p) {
    const int64_t j0 = p * NR;
    const int64_t w = std::min(NR, N - j0);
    float* panel = out + p * K * NR;
    for (int64_t k = 0; k < K; ++k) {
      const float* src = b + k * rs + j0 * cs;
      float* dst = panel + k * NR;
      if (cs == 1) {
        for (int64_t j = 0; j < w; ++j) {
          bad |= nonfinite_bit(src[j]);
          dst[j] = src[j];
        }
      } else {
        for (int64_t j = 0; j < w; ++j) {
          const float v = src[j * cs];
          bad |= nonfinite_bit(v);
          dst[j] = v;
        }
      }
      for (int64_t j = w; j < NR; ++j) dst[j] = 0.0f;
    }
  }
  return bad == 0;
}

/// Packs rows [i0, i0+mc) x columns [k0, k0+kc) of the logical [M, K]
/// operand (element (i, k) at a[i*rs + k*cs]) into mr-tall strips,
/// k-major, short strips zero-padded.
void pack_a(const float* a, int64_t rs, int64_t cs, int64_t i0, int64_t mc, int64_t k0,
            int64_t kc, int64_t mr, float* out) {
  for (int64_t s = 0; s * mr < mc; ++s) {
    const int64_t r0 = i0 + s * mr;
    const int64_t rows = std::min(mr, i0 + mc - r0);
    float* strip = out + s * mr * kc;
    for (int64_t k = 0; k < kc; ++k) {
      const float* src = a + r0 * rs + (k0 + k) * cs;
      float* dst = strip + k * mr;
      int64_t i = 0;
      for (; i < rows; ++i) dst[i] = src[i * rs];
      for (; i < mr; ++i) dst[i] = 0.0f;
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
// One full C tile row as a generic vector: the compiler lowers ops on it
// to the widest SIMD the target has (one zmm, two ymm, four xmm) and the
// accumulators stay in registers. Autovectorisation of the scalar form
// is not trusted here: GCC picks the 4-wide i-axis for it, an 8x loss.
using vnr = float __attribute__((vector_size(64)));
using vhalf = float __attribute__((vector_size(32)));
using vquarter = float __attribute__((vector_size(16)));
static_assert(NR * sizeof(float) == 64, "vnr must span one packed panel row");
#endif

// ---------------------------------------------------------------------------
// B row sources. The micro-kernel and the pre-packed driver below take
// the B operand as a policy: a Source hands run_mblock_packed the Rows
// of panel p from k-block offset k0 (the per-call run_mblock reads
// panels only), and Rows::load(k, v) fills the NR lanes of row
// k into v. Everything else (blocking, k-block order, MR/NR tails, the
// epilogue, split-M) is shared, so each C element keeps its one
// k-ascending chain whichever source feeds it.
// ---------------------------------------------------------------------------

/// Row k of a packed-B panel slice: NR contiguous floats at bp + k*NR.
struct PanelRows {
  const float* bp;
  template <typename V>
  void load(int64_t k, V& v) const {
    static_assert(sizeof(V) == NR * sizeof(float), "a B row is NR floats");
    std::memcpy(&v, bp + k * NR, sizeof(V));
  }
};

/// The pack_b panel layout of a [K, N] operand (im2col_packed, pack_b,
/// PackedB): panel p's row k at bpack + p*K*NR + k*NR.
struct PanelSource {
  using Rows = PanelRows;
  const float* bpack;
  int64_t K;
  Rows rows(int64_t p, int64_t k0) const { return {bpack + p * K * NR + k0 * NR}; }
};

/// Row k of a direct-conv panel: NR / kRun runs of kRun contiguous
/// floats, run r at base[r] + off[k] (im2col.h, "Direct convolution").
template <int64_t kRun>
struct RunRows {
  static constexpr int64_t kRuns = NR / kRun;
  const float* base[kRuns];
  const int64_t* off;
  template <typename V>
  void load(int64_t k, V& v) const {
    static_assert(sizeof(V) == NR * sizeof(float), "a B row is NR floats");
    const int64_t o = off[k];
    auto* lanes = reinterpret_cast<unsigned char*>(&v);
    for (int64_t r = 0; r < kRuns; ++r) {
      std::memcpy(lanes + r * kRun * sizeof(float), base[r] + o, kRun * sizeof(float));
    }
  }
#if defined(__GNUC__) || defined(__clang__)
  // Short runs are joined in registers: storing them into one stack
  // vector and reloading it stalls on store forwarding every k.
  void load(int64_t k, vnr& v) const {
    const int64_t o = off[k];
    if constexpr (kRun == 16) {
      __builtin_memcpy(&v, base[0] + o, sizeof(vnr));
    } else if constexpr (kRun == 8) {
      vhalf lo, hi;
      __builtin_memcpy(&lo, base[0] + o, sizeof(vhalf));
      __builtin_memcpy(&hi, base[1] + o, sizeof(vhalf));
      v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    } else {
      vquarter q0, q1, q2, q3;
      __builtin_memcpy(&q0, base[0] + o, sizeof(vquarter));
      __builtin_memcpy(&q1, base[1] + o, sizeof(vquarter));
      __builtin_memcpy(&q2, base[2] + o, sizeof(vquarter));
      __builtin_memcpy(&q3, base[3] + o, sizeof(vquarter));
      const vhalf lo = __builtin_shufflevector(q0, q1, 0, 1, 2, 3, 4, 5, 6, 7);
      const vhalf hi = __builtin_shufflevector(q2, q3, 0, 1, 2, 3, 4, 5, 6, 7);
      v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    }
  }
#endif
};

/// A DirectConv offset map over its plane buffer. Column j is output
/// (j / out_w, j % out_w), whose run starts at plane row y, column x;
/// kRun divides out_w, so no run straddles an output row.
template <int64_t kRun>
struct RunSource {
  using Rows = RunRows<kRun>;
  const float* planes;
  const int64_t* off;
  int64_t out_w, plane_w;
  Rows rows(int64_t p, int64_t k0) const {
    Rows r;
    r.off = off + k0;
    for (int64_t i = 0; i < Rows::kRuns; ++i) {
      const int64_t j = p * NR + i * kRun;
      r.base[i] = planes + (j / out_w) * plane_w + j % out_w;
    }
    return r;
  }
};

#if defined(__GNUC__) || defined(__clang__)

/// kMR x NR register tile: c[0:mr, 0:nr] (+)= ap * B over kc. ap is a
/// kMR-tall strip (k-major); `rows` loads the B rows (see PanelRows,
/// RunRows).
///
/// C is PRE-LOADED into the accumulators (zeros when `overwrite`, i.e.
/// the first k-block of a non-accumulating call) and the k-loop then
/// extends each element's chain in strictly ascending k. Because the
/// chain continues across k-blocks instead of summing each block from
/// zero and adding it to C afterwards, every C element sees one global
/// k-ascending addition sequence — making the result bitwise INVARIANT
/// to mc/kc/mr, the parallelization strategy, and the worker count.
/// So any legal config a PackedA records produces identical bits, only
/// different speed; and two row sources that load the same B values
/// produce identical bits too.
///
/// Edge tiles stage C through a zero-padded tile so the same vector
/// loop runs; pad lanes are never written back (they can hold garbage
/// when A carries non-finite values — B is scanned, A is not).
template <int64_t kMR, typename Rows>
void micro_kernel_t(const float* __restrict ap, Rows rows, int64_t kc, float* __restrict c,
                    int64_t ldc, int64_t mr, int64_t nr, bool overwrite) {
  vnr acc[kMR];
  if (mr == kMR && nr == NR) {
    if (overwrite) {
      for (int64_t i = 0; i < kMR; ++i) acc[i] = vnr{};
    } else {
      for (int64_t i = 0; i < kMR; ++i) __builtin_memcpy(&acc[i], c + i * ldc, sizeof(vnr));
    }
    for (int64_t k = 0; k < kc; ++k) {
      vnr bv;
      rows.load(k, bv);
      const float* __restrict ak = ap + k * kMR;
      for (int64_t i = 0; i < kMR; ++i) acc[i] += ak[i] * bv;
    }
    for (int64_t i = 0; i < kMR; ++i) __builtin_memcpy(c + i * ldc, &acc[i], sizeof(vnr));
  } else {
    float tile[kMR][NR] = {};
    if (!overwrite) {
      for (int64_t i = 0; i < mr; ++i) {
        const float* crow = c + i * ldc;
        for (int64_t j = 0; j < nr; ++j) tile[i][j] = crow[j];
      }
    }
    __builtin_memcpy(acc, tile, sizeof(tile));
    for (int64_t k = 0; k < kc; ++k) {
      vnr bv;
      rows.load(k, bv);
      const float* __restrict ak = ap + k * kMR;
      for (int64_t i = 0; i < kMR; ++i) acc[i] += ak[i] * bv;
    }
    __builtin_memcpy(tile, acc, sizeof(tile));
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] = tile[i][j];
    }
  }
}
#else
/// Portable scalar fallback of the tile above; same C pre-load and the
/// same per-element k-ascending accumulation order.
template <int64_t kMR, typename Rows>
void micro_kernel_t(const float* __restrict ap, Rows rows, int64_t kc, float* __restrict c,
                    int64_t ldc, int64_t mr, int64_t nr, bool overwrite) {
  float acc[kMR][NR] = {};
  if (!overwrite) {
    for (int64_t i = 0; i < mr; ++i) {
      const float* crow = c + i * ldc;
      for (int64_t j = 0; j < nr; ++j) acc[i][j] = crow[j];
    }
  }
  for (int64_t k = 0; k < kc; ++k) {
    float bk[NR];
    rows.load(k, bk);
    const float* __restrict ak = ap + k * kMR;
    for (int64_t i = 0; i < kMR; ++i) {
      const float av = ak[i];
      for (int64_t j = 0; j < NR; ++j) acc[i][j] += av * bk[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] = acc[i][j];
  }
}
#endif

template <typename Rows>
using MicroFn = void (*)(const float* __restrict, Rows, int64_t, float* __restrict, int64_t,
                         int64_t, int64_t, bool);

/// Dispatches to the compiled micro-kernel for an mr from
/// legal_gemm_mr(); resolve/pack_a_full guarantee legality upstream.
template <typename Rows>
MicroFn<Rows> micro_for(int64_t mr) {
  switch (mr) {
    case 4: return micro_kernel_t<4, Rows>;
    case 8: return micro_kernel_t<8, Rows>;
    default: return micro_kernel_t<6, Rows>;
  }
}

/// Strides locating element (i, k) of A and (k, j) of B inside the
/// caller's buffers; lets one driver serve the NN / NT / TN variants.
struct Operands {
  int64_t a_rs, a_cs;
  int64_t b_rs, b_cs;
};

/// Fused write-back for one C tile: bias adds then activation, plain
/// float ops in row-major element order — the exact sequence the
/// interpreted per-layer passes perform, so fusion is bitwise exact.
void apply_epilogue_tile(float* c, int64_t ldc, int64_t mr, int64_t nr, int64_t i0, int64_t j0,
                         const GemmEpilogue& ep) {
  for (int64_t i = 0; i < mr; ++i) {
    float* row = c + i * ldc;
    const float br = ep.bias_row != nullptr ? ep.bias_row[i0 + i] : 0.0f;
    for (int64_t j = 0; j < nr; ++j) {
      float v = row[j];
      if (ep.bias_row != nullptr) v += br;
      if (ep.bias_col != nullptr) v += ep.bias_col[j0 + j];
      if (ep.act == 1) {
        v = v > 0.0f ? v : 0.0f;
      } else if (ep.act == 2) {
        v = v > 0.0f ? v : ep.alpha * v;
      }
      row[j] = v;
    }
  }
}

bool has_epilogue(const GemmEpilogue& ep) {
  return ep.bias_row != nullptr || ep.bias_col != nullptr || ep.act != 0;
}

/// One row block: all k-blocks, in order, against every panel of `src`.
/// The per-element accumulation order (k ascending, C pre-loaded) is
/// identical no matter which worker runs the block or how cfg slices
/// it. The optional epilogue fires per tile after the final k-block.
void run_mblock(const float* a, float* c, int64_t M, int64_t K, int64_t N, bool accumulate,
                const Operands& op, const PanelSource& src, int64_t mb, const GemmEpilogue& ep,
                const GemmTuneConfig& cfg, MicroFn<PanelRows> micro, std::vector<float>& apack) {
  const int64_t i0 = mb * cfg.mc;
  const int64_t mc = std::min(cfg.mc, M - i0);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  const int64_t panels = (N + NR - 1) / NR;
  apack.resize(static_cast<size_t>(strips * cfg.mr * std::min(K, cfg.kc)));
  for (int64_t k0 = 0; k0 < K; k0 += cfg.kc) {
    const int64_t kc = std::min(cfg.kc, K - k0);
    pack_a(a, op.a_rs, op.a_cs, i0, mc, k0, kc, cfg.mr, apack.data());
    const bool overwrite = k0 == 0 && !accumulate;
    const bool last = k0 + kc == K;
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * NR;
      const int64_t nr = std::min(NR, N - j0);
      const PanelRows rows = src.rows(p, k0);
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(apack.data() + s * cfg.mr * kc, rows, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

/// True when a call with this strategy and row-block count actually
/// splits across workers: serial when the shape has one block or
/// threading is unavailable here. Purely shape/thread-count dependent,
/// so dispatch stays deterministic.
bool splits_rows(GemmParallel strat, int64_t mblocks) {
  return strat == GemmParallel::kSplitM && mblocks > 1 && num_threads() > 1 &&
         !in_parallel_region();
}

/// Run half of the per-call kernels: c (+)= A * B (+ epilogue) with B
/// in packed panels. A is packed per call into `s`; B is only read, so
/// it may live in s.bpack.
void run_packed_b(GemmVariant variant, const float* a, const PanelSource& src, float* c, int64_t M,
                  int64_t K, int64_t N, bool accumulate, GemmScratch& s, const Operands& op,
                  const GemmEpilogue& ep = {}) {
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    if (!accumulate) std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
    if (has_epilogue(ep)) apply_epilogue_tile(c, N, M, N, 0, 0, ep);
    return;
  }
  const GemmTuneConfig cfg = resolve_gemm_config(variant, M, K, N);
  const auto micro = micro_for<PanelRows>(cfg.mr);
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  if (!splits_rows(cfg.strategy, mblocks)) {
    for (int64_t mb = 0; mb < mblocks; ++mb) {
      run_mblock(a, c, M, K, N, accumulate, op, src, mb, ep, cfg, micro, s.apack);
    }
    return;
  }
  // Row blocks across workers. B is written strictly before the threads
  // spawn (happens-before via thread creation) and is read-only inside
  // the region; each block writes a disjoint C row range.
  const auto workers = static_cast<size_t>(std::min<int64_t>(mblocks, num_threads()));
  if (s.wapack.size() < workers) s.wapack.resize(workers);
  parallel_for(0, mblocks, [&](int tid, int64_t mb) {
    run_mblock(a, c, M, K, N, accumulate, op, src, mb, ep, cfg, micro,
               s.wapack[static_cast<size_t>(tid)]);
  });
}

/// Shared driver for the per-call kernels: the pack half (pack_b into
/// the scratch) then run_packed_b. `fallback` re-runs the whole product
/// on the strong-zero reference path; taken when B contains non-finite
/// values.
template <typename Fallback>
void tiled_driver(GemmVariant variant, const float* a, const float* b, float* c, int64_t M,
                  int64_t K, int64_t N, bool accumulate, GemmScratch* scratch,
                  const Operands& op, const Fallback& fallback) {
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  if (M > 0 && N > 0 && K > 0) {
    s.bpack.resize(static_cast<size_t>(packed_b_floats(K, N)));
    if (!pack_b(b, op.b_rs, op.b_cs, K, N, s.bpack.data())) {
      fallback();
      return;
    }
  }
  run_packed_b(variant, a, PanelSource{s.bpack.data(), K}, c, M, K, N, accumulate, s, op);
}

/// run_mblock with A pre-packed (layout and config from the PackedA):
/// same block order, same micro-kernel calls, no pack_a.
template <typename Src>
void run_mblock_packed(const PackedA& A, const Src& src, float* c, int64_t N,
                       const GemmEpilogue& ep, MicroFn<typename Src::Rows> micro, int64_t mb) {
  const GemmTuneConfig& cfg = A.cfg;
  const int64_t M = A.rows;
  const int64_t K = A.depth;
  const int64_t i0 = mb * cfg.mc;
  const int64_t mc = std::min(cfg.mc, M - i0);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  const int64_t panels = (N + NR - 1) / NR;
  for (int64_t kb = 0; kb < A.kblocks; ++kb) {
    const int64_t k0 = kb * cfg.kc;
    const int64_t kc = std::min(cfg.kc, K - k0);
    const float* apack =
        A.strips.data() + A.block_offset[static_cast<size_t>(mb * A.kblocks + kb)];
    const bool overwrite = k0 == 0;
    const bool last = k0 + kc == K;
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * NR;
      const int64_t nr = std::min(NR, N - j0);
      const typename Src::Rows rows = src.rows(p, k0);
      for (int64_t s = 0; s < strips; ++s) {
        const int64_t i = i0 + s * cfg.mr;
        const int64_t mr = std::min(cfg.mr, i0 + mc - i);
        micro(apack + s * cfg.mr * kc, rows, kc, c + i * N + j0, N, mr, nr, overwrite);
        if (last && has_epilogue(ep)) apply_epilogue_tile(c + i * N + j0, N, mr, nr, i, j0, ep);
      }
    }
  }
}

/// gemm_tiled_packed over any B source: c[M, N] = A * B (+ epilogue).
template <typename Src>
void run_prepacked(const PackedA& a, const Src& src, float* c, int64_t N, const GemmEpilogue& ep) {
  const int64_t M = a.rows;
  const int64_t K = a.depth;
  if (M <= 0 || N <= 0) return;
  if (K <= 0) {
    std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
    if (has_epilogue(ep)) apply_epilogue_tile(c, N, M, N, 0, 0, ep);
    return;
  }
  const auto micro = micro_for<typename Src::Rows>(a.cfg.mr);
  const int64_t mblocks = (M + a.cfg.mc - 1) / a.cfg.mc;
  if (!splits_rows(a.cfg.strategy, mblocks)) {
    for (int64_t mb = 0; mb < mblocks; ++mb) run_mblock_packed(a, src, c, N, ep, micro, mb);
    return;
  }
  parallel_for(0, mblocks,
               [&](int, int64_t mb) { run_mblock_packed(a, src, c, N, ep, micro, mb); });
}

/// Calls fn with the RunSource of `map` over `planes`, for its run width.
template <typename Fn>
void with_run_source(const DirectConv& map, const float* planes, const Fn& fn) {
  const int64_t* off = map.off.data();
  switch (map.run) {
    case 16: fn(RunSource<16>{planes, off, map.out_w, map.plane_w}); break;
    case 8: fn(RunSource<8>{planes, off, map.out_w, map.plane_w}); break;
    case 4: fn(RunSource<4>{planes, off, map.out_w, map.plane_w}); break;
    default: throw std::invalid_argument("direct GEMM: offset map has run width " +
                                         std::to_string(map.run));
  }
}

}  // namespace

int64_t gemm_apack_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg) {
  const int64_t mc = std::min(cfg.mc, M);
  const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
  return strips * cfg.mr * std::min(K, cfg.kc);
}

int64_t gemm_apack_all_floats(int64_t M, int64_t K, const GemmTuneConfig& cfg) {
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  int64_t strips_total = 0;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t mc = std::min(cfg.mc, M - mb * cfg.mc);
    strips_total += (mc + cfg.mr - 1) / cfg.mr;
  }
  return strips_total * cfg.mr * K;
}

void reserve_gemm_scratch(GemmScratch& s, GemmVariant v, int64_t M, int64_t K, int64_t N) {
  if (M <= 0 || K <= 0 || N <= 0) return;
  const GemmTuneConfig cfg = resolve_gemm_config(v, M, K, N);
  const auto grow = [](std::vector<float>& buf, int64_t n) {
    if (static_cast<int64_t>(buf.size()) < n) buf.resize(static_cast<size_t>(n));
  };
  grow(s.bpack, packed_b_floats(K, N));
  // Size the serial block pack unconditionally (the runtime strategy
  // downgrades to serial inside parallel regions), then the per-worker
  // packs split-M uses on top.
  grow(s.apack, gemm_apack_floats(M, K, cfg));
  if (cfg.strategy == GemmParallel::kSplitM) {
    const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
    const size_t workers =
        static_cast<size_t>(std::min<int64_t>(mblocks, num_threads()));
    if (s.wapack.size() < workers) s.wapack.resize(workers);
    for (size_t w = 0; w < workers; ++w) grow(s.wapack[w], gemm_apack_floats(M, K, cfg));
  }
}

PackedA pack_a_full(const float* a, int64_t M, int64_t K, const GemmTuneConfig& cfg_in) {
  PackedA out;
  out.cfg = cfg_in;
  if (!gemm_config_valid(out.cfg)) out.cfg = GemmTuneConfig{};
  const GemmTuneConfig& cfg = out.cfg;
  out.rows = M;
  out.depth = K;
  out.kblocks = (K + cfg.kc - 1) / cfg.kc;
  const int64_t mblocks = (M + cfg.mc - 1) / cfg.mc;
  out.block_offset.reserve(static_cast<size_t>(mblocks * out.kblocks));
  size_t total = 0;
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    const int64_t strips = (mc + cfg.mr - 1) / cfg.mr;
    for (int64_t kb = 0; kb < out.kblocks; ++kb) {
      const int64_t kc = std::min(cfg.kc, K - kb * cfg.kc);
      out.block_offset.push_back(total);
      total += static_cast<size_t>(strips * cfg.mr * kc);
    }
  }
  out.strips.resize(total);
  for (int64_t mb = 0; mb < mblocks; ++mb) {
    const int64_t i0 = mb * cfg.mc;
    const int64_t mc = std::min(cfg.mc, M - i0);
    for (int64_t kb = 0; kb < out.kblocks; ++kb) {
      const int64_t k0 = kb * cfg.kc;
      const int64_t kc = std::min(cfg.kc, K - k0);
      pack_a(a, K, 1, i0, mc, k0, kc, cfg.mr,
             out.strips.data() + out.block_offset[static_cast<size_t>(mb * out.kblocks + kb)]);
    }
  }
  return out;
}

PackedB pack_b_nt(const float* w, int64_t N, int64_t K) {
  PackedB out;
  out.depth = K;
  out.cols = N;
  out.panels.resize(static_cast<size_t>(packed_b_floats(K, N)));
  // Logical B = w^T for row-major w[N, K]: element (k, j) at w[j*K + k].
  out.finite = pack_b(w, 1, K, K, N, out.panels.data());
  return out;
}

void gemm_tiled_packed(const PackedA& a, const float* bpanels, float* c, int64_t N,
                       const GemmEpilogue& ep) {
  run_prepacked(a, PanelSource{bpanels, a.depth}, c, N, ep);
}

void gemm_tiled_packed_direct(const PackedA& a, const float* planes, const DirectConv& map,
                              float* c, const GemmEpilogue& ep) {
  with_run_source(map, planes,
                  [&](const auto& src) { run_prepacked(a, src, c, map.cols(), ep); });
}

void conv_image(const PackedA& w, const float* wmat, const float* image, const ConvGeom& g,
                const DirectConv& map, ScratchArena& arena, int tid, float* out,
                const GemmEpilogue& ep) {
  const int64_t K = g.col_rows();
  const int64_t N = g.col_cols();
  if (gemm_kernel() == GemmKernel::kTiled) {
    if (map.run != 0) {
      float* planes = arena.floats(tid, 0, direct_plane_floats(g));
      if (fill_direct_planes(image, g, planes)) {
        gemm_tiled_packed_direct(w, planes, map, out, ep);
        return;
      }
    } else {
      float* panels = arena.floats(tid, 0, packed_b_floats(K, N));
      if (im2col_packed(image, g, panels)) {
        gemm_tiled_packed(w, panels, out, N, ep);
        return;
      }
    }
  }
  // The reference kernel, or a non-finite value some tap reads: the
  // strong-zero product, the condition under which pack_b would send
  // gemm_tiled there too.
  float* col = arena.floats(tid, 1, K * N);
  im2col(image, g, col);
  gemm(wmat, col, out, w.rows, K, N, /*accumulate=*/false);
  if (has_epilogue(ep)) apply_epilogue_tile(out, N, w.rows, N, 0, 0, ep);
}

void gemm_tiled_packed_nt(const float* a, const PackedB& b, float* c, int64_t M,
                          const GemmEpilogue& ep, GemmScratch* scratch) {
  // The logical product is a[M, K] * w^T — an NT-variant shape. A is
  // packed per call (row-major operand strides {K, 1}).
  GemmScratch local;
  run_packed_b(GemmVariant::kNT, a, PanelSource{b.panels.data(), b.depth}, c, M, b.depth, b.cols,
               /*accumulate=*/false,
               scratch != nullptr ? *scratch : local, Operands{b.depth, 1, 0, 0}, ep);
}

GemmKernel gemm_kernel() { return g_kernel.load(std::memory_order_relaxed); }

void set_gemm_kernel(GemmKernel k) { g_kernel.store(k, std::memory_order_relaxed); }

const char* to_string(GemmKernel k) {
  return k == GemmKernel::kTiled ? "tiled" : "reference";
}

void gemm_tiled(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                bool accumulate, GemmScratch* scratch) {
  tiled_driver(GemmVariant::kNN, a, b, c, M, K, N, accumulate, scratch, Operands{K, 1, N, 1},
               [&] { gemm(a, b, c, M, K, N, accumulate); });
}

void gemm_tiled_nt(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate, GemmScratch* scratch) {
  // Logical B = bT where b is [N, K]: element (k, j) sits at b[j*K + k].
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  tiled_driver(GemmVariant::kNT, a, b, c, M, K, N, accumulate, &s, Operands{K, 1, 1, K}, [&] {
    s.tpose.resize(static_cast<size_t>(K * N));
    for (int64_t j = 0; j < N; ++j) {
      const float* brow = b + j * K;
      for (int64_t k = 0; k < K; ++k) s.tpose[static_cast<size_t>(k * N + j)] = brow[k];
    }
    gemm(a, s.tpose.data(), c, M, K, N, accumulate);
  });
}

void gemm_tiled_tn(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                   bool accumulate, GemmScratch* scratch) {
  // Logical A = aT where a is [K, M]: element (i, k) sits at a[k*M + i].
  tiled_driver(GemmVariant::kTN, a, b, c, M, K, N, accumulate, scratch, Operands{1, M, N, 1},
               [&] { gemm_tn_ref(a, b, c, M, K, N, accumulate); });
}

void gemm_auto(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
               bool accumulate, GemmScratch* scratch) {
  if (gemm_kernel() == GemmKernel::kTiled) {
    gemm_tiled(a, b, c, M, K, N, accumulate, scratch);
  } else {
    gemm(a, b, c, M, K, N, accumulate);
  }
}

void gemm_nt_auto(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                  bool accumulate, GemmScratch* scratch) {
  if (gemm_kernel() == GemmKernel::kTiled) {
    gemm_tiled_nt(a, b, c, M, K, N, accumulate, scratch);
    return;
  }
  // Reference lowering: explicit transpose + strong-zero gemm (the
  // historical conv2d backward dW path).
  GemmScratch local;
  GemmScratch& s = scratch != nullptr ? *scratch : local;
  s.tpose.resize(static_cast<size_t>(K * N));
  for (int64_t j = 0; j < N; ++j) {
    const float* brow = b + j * K;
    for (int64_t k = 0; k < K; ++k) s.tpose[static_cast<size_t>(k * N + j)] = brow[k];
  }
  gemm(a, s.tpose.data(), c, M, K, N, accumulate);
}

void gemm_tn_auto(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                  bool accumulate, GemmScratch* scratch) {
  if (gemm_kernel() == GemmKernel::kTiled) {
    gemm_tiled_tn(a, b, c, M, K, N, accumulate, scratch);
  } else {
    gemm_tn_ref(a, b, c, M, K, N, accumulate);
  }
}

}  // namespace capr
