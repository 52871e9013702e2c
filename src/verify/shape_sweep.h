// Randomized differential sweeps: optimized kernels vs the naive oracle.
//
// Each sweep draws `configs` randomized (seeded, hence reproducible)
// shape configurations — sizes, strides, paddings, bias on/off — runs
// both the optimized kernel and its reference from oracle.h, and
// compares element-wise. The first divergence is reported with the full
// configuration string and the worst element, so a failure is directly
// re-runnable: same seed, same configs, same order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace capr::verify {

struct SweepOptions {
  /// Randomized configurations per sweep (acceptance floor is 50).
  int configs = 60;
  uint64_t seed = 0x5EEDull;
  /// Comparison tolerances. The optimized GEMMs accumulate in a different
  /// order (some in fp32), so exact equality is not expected; these
  /// bounds hold with wide margin for the swept sizes.
  float atol = 1e-4f;
  float rtol = 1e-3f;
  /// Worker count used as the "N" of the 1-vs-N determinism sweep.
  int threads_high = 8;
};

struct SweepResult {
  int configs_run = 0;
  int failures = 0;
  std::string first_failure;  // config + worst-element description
  bool ok() const { return configs_run > 0 && failures == 0; }
};

/// matmul / matmul_nt / matmul_tn / raw gemm (incl. accumulate path)
/// against ref_* over random (M, K, N).
SweepResult sweep_gemm(const SweepOptions& opts = {});

/// One GEMM problem size for the tiled-vs-reference sweeps below.
struct GemmShape {
  int64_t m, k, n;
};

/// Adversarial tile-remainder shapes for the tiled kernel: M and N drawn
/// from one-off-the-register-tile values {1, MR±1, MR, NR±1, NR, prime},
/// K from one-off-the-cache-block values {1, 5, 127, KC±1, KC}, crossed.
/// Every remainder edge of the packing and micro-kernel store paths is
/// hit at least once.
std::vector<GemmShape> remainder_gemm_shapes();

/// Differential sweep of the TILED kernel against the reference kernel
/// over explicit shapes: gemm_tiled / gemm_tiled_nt / gemm_tiled_tn plus
/// the NN accumulate path, with random finite operands. Callers supply
/// the shape list (remainder_gemm_shapes(), builder-arch im2col shapes).
SweepResult sweep_gemm_tiled(const std::vector<GemmShape>& shapes,
                             const SweepOptions& opts = {});

/// im2col and col2im against the references over random geometries, plus
/// the adjoint identity <im2col(x), y> == <x, col2im(y)>. Each config
/// also checks im2col_packed against the pack_b layout of ref_im2col,
/// byte for byte (tail-panel padding included), on a wider geometry (C
/// 1-8, H and W 1-33, k 1-5, stride 1-3, padding 0-2); half of those
/// plant a NaN, +-Inf or -0.0 at a random input position, and the return
/// value must equal "some column value is non-finite".
SweepResult sweep_im2col(const SweepOptions& opts = {});

/// The conv step nn::Conv2d and compiled plans share (conv_image), and
/// the direct-conv lowering under it (im2col.h, "Direct convolution"),
/// over random ELIGIBLE geometries: 1-, 2- and 4-run panels, strides
/// 1-3, pads 0-2, kernels 1-5 (1x1 stride-2 pad-0 included). Half the
/// configs plant a NaN, +-Inf or -0.0 at a random input position;
/// fill_direct_planes must return the verdict im2col_packed returns and
/// ref_im2col implies, and must write every plane float. Every tenth
/// config is large: M > 72 (several row blocks, an MR tail), K > 256
/// (several k-blocks), at least 2^23 FLOPs (split-M at 2 threads).
///
/// conv_image runs on each config's geometry and on one wider, mostly
/// ineligible im2col_packed geometry planted the same way: under both
/// kernels, with and without the offset map, with no epilogue, a bias,
/// an activation or both, and a filter matrix with one all-zero row. It
/// must equal, byte for byte, gemm_tiled(W, ref_im2col(image)) (A packed
/// per call) when the columns are finite under the tiled kernel, the
/// strong-zero gemm otherwise, followed by plain bias and activation
/// loops. The sweep fails unless every one of those cases was reached.
SweepResult sweep_direct_conv(const SweepOptions& opts = {});

/// Conv2d forward AND backward (input/weight/bias grads) against the
/// direct-convolution reference over random geometries.
SweepResult sweep_conv2d(const SweepOptions& opts = {});

/// Determinism of the parallel_for-lowered Conv2d paths: with 1 worker vs
/// `threads_high` workers, forward output and input gradient must be
/// BITWISE identical (disjoint writes per batch element); weight/bias
/// gradients are per-thread-reduced and may reassociate, so they are
/// held to a tight tolerance instead.
SweepResult sweep_conv2d_determinism(const SweepOptions& opts = {});

}  // namespace capr::verify
