// Single-precision matrix multiplication: reference kernels and the
// dispatching matmul wrappers.
//
// These are the hot loops of the whole library (conv layers lower to GEMM
// via im2col). Two kernels exist:
//  - the REFERENCE kernel here: a cache-blocked triple loop in ikj order
//    with the strong-zero semantics below. It is the semantic authority
//    and the masked-model path.
//  - the TILED kernel (gemm_tiled.h): packed panels, register tiling and
//    parallel_for threading; the default fast path.
// matmul / matmul_nt / matmul_tn route through the active kernel
// (set_gemm_kernel, default tiled).
//
// Semantics of zeros (intentional, pinned by tests/gemm_test.cpp):
// `gemm` and `gemm_tn_ref` skip rank-1 updates whose left-operand element
// is exactly 0.0f, so zeros in A are STRONG zeros — a 0 in A annihilates
// NaN/Inf in the corresponding B row instead of producing NaN via IEEE
// 0*Inf. This is deliberate: pruning and masking create exact-zero
// weights, and a masked weight must fully silence its input no matter
// what flows through it. Nonzero entries propagate NaN/Inf normally.
// The tiled kernel preserves this observable contract by falling back to
// the reference path whenever its B operand contains non-finite values,
// so the wrappers keep strong-zero behaviour under either kernel.
// Exception: `matmul_nt` under the REFERENCE kernel keeps its historical
// dot-product form (double accumulators, plain IEEE propagation).
#pragma once

#include "tensor/tensor.h"

namespace capr {

/// C = A(MxK) * B(KxN). Shapes validated; C allocated by callee.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(MxK) * B(NxK)^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A(KxM)^T * B(KxN).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Raw reference kernel: c[M,N] += a[M,K] * b[K,N] over contiguous
/// row-major buffers. `accumulate=false` zeroes c first. Strong zeros.
void gemm(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
          bool accumulate = false);

/// Raw reference kernel: c[M,N] += a[K,M]^T * b[K,N] (rank-1 form,
/// strong zeros on A^T). `accumulate=false` zeroes c first.
void gemm_tn_ref(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                 bool accumulate = false);

/// Raw reference NT kernel: c[M,N] = a[M,K] * b[N,K]^T, every element a
/// double-accumulated row dot (plain IEEE propagation, no strong zeros
/// — matmul_nt's historical semantics). One shared out-of-line body so
/// matmul_nt and the compiled linear step produce bitwise-identical
/// results regardless of per-TU optimisation (FP contraction).
void gemm_nt_ref_rows(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N);

}  // namespace capr
