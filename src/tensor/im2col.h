// im2col / col2im lowering for convolutions.
//
// A convolution with weight [Cout, Cin, Kh, Kw] over input [Cin, H, W]
// becomes a GEMM of the [Cout, Cin*Kh*Kw] filter matrix with the
// [Cin*Kh*Kw, Hout*Wout] column matrix produced by im2col. col2im is the
// adjoint, used for the input gradient. This is also exactly the
// "reshaped weights" view of the paper's Fig. 2: each row of the column
// matrix enumerates one sliding-window position.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace capr {

/// Geometry of a 2-D convolution (square stride/padding per axis).
struct ConvGeom {
  int64_t in_channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t padding = 0;

  int64_t out_h() const { return (in_h + 2 * padding - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * padding - kernel_w) / stride + 1; }
  /// Rows of the column matrix: one per (channel, kernel offset).
  int64_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  /// Columns of the column matrix: one per output spatial position.
  int64_t col_cols() const { return out_h() * out_w(); }

  /// Throws std::invalid_argument on non-positive extents or an empty output.
  void validate() const;
};

/// Lowers one image [Cin, H, W] to the column matrix [Cin*Kh*Kw, Hout*Wout].
/// `im` must be contiguous CHW; `col` must have col_rows()*col_cols() floats.
void im2col(const float* im, const ConvGeom& g, float* col);

/// Lowers one image straight into the tiled GEMM's packed-B panel layout
/// (kPanelWidth-wide column panels, k-major, tail panel zero-padded):
/// writing pack_b(im2col(im)) byte for byte in one pass, skipping the
/// intermediate column matrix entirely. The panels are filled in panel
/// order, each (c, kh, kw) row of a panel copying the input-row run of
/// every output row the panel covers, so the buffer is written front to
/// back. `panels` must have
/// packed_b_floats(col_rows(), col_cols()) floats.
///
/// Returns false iff some column value is non-finite — the exact
/// predicate pack_b evaluates on im2col(im), so conv_image (the conv
/// step of compiled plans and Conv2d) and the per-call kernels take the
/// strong-zero reference fallback under identical conditions. An input element the
/// windows never read (a stride that skips rows or columns) is in no
/// column and never counts. When every element is read the predicate is
/// one scan of the input; otherwise it is checked during the gather.
bool im2col_packed(const float* im, const ConvGeom& g, float* panels);

// ---------------------------------------------------------------------------
// Direct convolution: the tiled GEMM reads B through an offset map.
//
// im2col_packed writes Cin*Kh*Kw*Hout*Wout floats per image however few
// output channels (GEMM rows) consume them; for the narrow layers
// pruning leaves, that copy costs more than the product. The direct
// path instead copies each image ONCE into zero-padded planes and lets
// the micro-kernel load every B panel row straight from them (after
// Zhang, Franchetti & Low, "High Performance Zero-Memory Overhead Direct
// Convolutions", ICML 2018, and tt-metal's address-map conv).
//
// Planes: for stride s the padded image P (P[Y][X] = input[Y-pad][X-pad],
// zero outside) is split into phase planes Q[ry][rx][a][b] = P[ry + s*a]
// [rx + s*b], for the phases ry < min(s, Kh), rx < min(s, Kw) some tap
// reads (stride 1: one plane, the padded image itself). A plane is
// (Hout + (Kh-1)/s) x (Wout + (Kw-1)/s); layout [c][ry][rx][a][b].
//
// Offset map: column j of B is output (y, x) = (j / Wout, j % Wout) and
// row k = (c, kh, kw) reads Q[kh%s][kw%s][y + kh/s][x + kw/s] of channel
// c. That address splits into base(y, x) + off[k], and consecutive x are
// consecutive floats. So with Wout a multiple of the run width R, the 16
// lanes of a B panel row are 16/R contiguous runs of R floats, each at
// base(run) + off[k]: 1, 2 or 4 vector loads instead of a panel copy.
//
// The B values the micro-kernel sees are exactly the panel values of
// im2col_packed (padding zeros are +0.0f in both), so the tiled GEMM on
// an offset map is bitwise identical to it on the packed panels.
// ---------------------------------------------------------------------------

/// Run width of the direct path for `g`: 16, 8 or 4 (the largest that
/// divides Wout) when col_cols() is a multiple of kPanelWidth, else 0
/// (the conv lowers through im2col_packed). Pure: compile() and the
/// plan verifier decide the lowering with it.
int64_t direct_conv_run(const ConvGeom& g);
inline bool direct_conv_eligible(const ConvGeom& g) { return direct_conv_run(g) != 0; }

/// Floats of the plane buffer fill_direct_planes writes for `g`.
int64_t direct_plane_floats(const ConvGeom& g);

/// The offset map of an eligible geometry; immutable once built. A
/// compiled conv step records one; nn::Conv2d builds one per call.
struct DirectConv {
  int64_t run = 0;      // lanes per contiguous run (direct_conv_run)
  int64_t out_h = 0;    // Hout
  int64_t out_w = 0;    // Wout: column j is output (j / out_w, j % out_w)
  int64_t plane_w = 0;  // row pitch of a phase plane
  std::vector<int64_t> off;  // off[k], k = (c, kh, kw): the tap's plane offset

  int64_t rows() const { return static_cast<int64_t>(off.size()); }  // GEMM K
  int64_t cols() const { return out_h * out_w; }                     // GEMM N
  bool operator==(const DirectConv&) const = default;
};

/// Builds the offset map of `g`. Throws std::invalid_argument when
/// !direct_conv_eligible(g).
DirectConv direct_conv_map(const ConvGeom& g);

/// Copies one image [Cin, H, W] into the phase planes of `g` (see above);
/// `planes` must have direct_plane_floats(g) floats, every one of which
/// is written. Returns false iff some value a tap reads is non-finite —
/// the exact predicate im2col_packed returns, evaluated only over the
/// plane positions inside the read window, so both lowerings take the
/// strong-zero fallback under identical conditions.
bool fill_direct_planes(const float* im, const ConvGeom& g, float* planes);

/// Adjoint of im2col: accumulates the column matrix back into [Cin, H, W].
/// `im` must be zeroed by the caller if fresh accumulation is wanted.
void col2im(const float* col, const ConvGeom& g, float* im);

/// Tensor wrappers used by tests (single image).
Tensor im2col(const Tensor& image, const ConvGeom& g);
Tensor col2im(const Tensor& col, const ConvGeom& g);

}  // namespace capr
