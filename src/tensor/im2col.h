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
/// predicate pack_b evaluates on im2col(im), so the compiled plan, the
/// tiled Conv2d forward and the per-call kernels take the strong-zero
/// reference fallback under identical conditions. An input element the
/// windows never read (a stride that skips rows or columns) is in no
/// column and never counts. When every element is read the predicate is
/// one scan of the input; otherwise it is checked during the gather.
bool im2col_packed(const float* im, const ConvGeom& g, float* panels);

/// Adjoint of im2col: accumulates the column matrix back into [Cin, H, W].
/// `im` must be zeroed by the caller if fresh accumulation is wanted.
void col2im(const float* col, const ConvGeom& g, float* im);

/// Tensor wrappers used by tests (single image).
Tensor im2col(const Tensor& image, const ConvGeom& g);
Tensor col2im(const Tensor& col, const ConvGeom& g);

}  // namespace capr
