#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/gemm_tiled.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace capr::nn {

std::vector<int64_t> normalize_indices(std::vector<int64_t> idx, int64_t extent,
                                       const char* what) {
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  for (int64_t i : idx) {
    if (i < 0 || i >= extent) {
      throw std::out_of_range(std::string(what) + ": index " + std::to_string(i) +
                              " out of range [0, " + std::to_string(extent) + ")");
    }
  }
  return idx;
}

std::vector<int64_t> surviving_indices(const std::vector<int64_t>& removed, int64_t extent) {
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(extent) - removed.size());
  size_t r = 0;
  for (int64_t i = 0; i < extent; ++i) {
    if (r < removed.size() && removed[r] == i) {
      ++r;
    } else {
      keep.push_back(i);
    }
  }
  return keep;
}

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("weight", {out_channels, in_channels, kernel, kernel}),
      bias_("bias", bias ? Shape{out_channels} : Shape{0}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("Conv2d: non-positive dimension");
  }
}

ConvGeom Conv2d::geom_for(int64_t h, int64_t w) const {
  ConvGeom g;
  g.in_channels = in_channels_;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  g.validate();
  return g;
}

Shape Conv2d::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_channels_) {
    throw std::invalid_argument("Conv2d " + name_ + ": input shape " + to_string(in) +
                                " incompatible with in_channels " +
                                std::to_string(in_channels_));
  }
  const ConvGeom g = geom_for(in[1], in[2]);
  return {out_channels_, g.out_h(), g.out_w()};
}

Tensor Conv2d::compute_forward(const Tensor& input, ScratchArena& arena) const {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d " + name_ + ": bad input " + to_string(input.shape()));
  }
  const int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const ConvGeom g = geom_for(h, w);
  const int64_t cols = g.col_cols();
  const int64_t krows = g.col_rows();

  Tensor out({n, out_channels_, g.out_h(), g.out_w()});
  const float* wmat = weight_.value.data();  // the [Cout, krows] filter matrix, row-major
  // The filter matrix is packed once per call, for the config the GEMM
  // resolves on this shape; each image then runs the compiled plan's conv
  // step body (conv_image), the bias fused into its write-back.
  const PackedA packed =
      pack_a_full(wmat, out_channels_, krows,
                  resolve_gemm_config(GemmVariant::kNN, out_channels_, krows, cols));
  const DirectConv map = direct_conv_eligible(g) ? direct_conv_map(g) : DirectConv{};
  GemmEpilogue ep;
  ep.bias_row = has_bias_ ? bias_.value.data() : nullptr;
  const int workers = std::max(1, std::min<int>(num_threads(), static_cast<int>(n)));
  // Arena buffers (slot 0: planes or panels, slot 1: the fallback column
  // matrix) persist across calls, so the steady-state batch loop
  // allocates no arena memory.
  arena.prepare(workers);
  parallel_for(0, n, [&](int tid, int64_t i) {
    conv_image(packed, wmat, input.data() + i * in_channels_ * h * w, g, map, arena, tid,
               out.data() + i * out_channels_ * cols, ep);
  });
  return out;
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  Tensor out = compute_forward(input, scratch_);
  (void)training;  // backward must work after either mode (scoring passes)
  cached_input_ = input;
  apply_output_instrumentation(out);
  return out;
}

Tensor Conv2d::forward_inference(const Tensor& input, InferScratch& scratch) const {
  Tensor out = compute_forward(input, scratch.arena);
  apply_inference_interventions(out);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  apply_grad_instrumentation(grad_output);
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d " + name_ + ": backward without cached forward");
  }
  const Tensor& input = cached_input_;
  const int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const ConvGeom g = geom_for(h, w);
  const int64_t cols = g.col_cols();
  const int64_t krows = g.col_rows();
  if (grad_output.shape() != Shape{n, out_channels_, g.out_h(), g.out_w()}) {
    throw std::invalid_argument("Conv2d " + name_ + ": grad shape " +
                                to_string(grad_output.shape()) + " mismatch");
  }

  Tensor grad_in({n, in_channels_, h, w});
  const Tensor wmat = filter_matrix();   // [Cout, krows]
  const Tensor wmatT = transpose(wmat);  // [krows, Cout]

  // Per-thread scratch from the arena: column matrices plus private
  // dW/db accumulators, reduced after the batch loop (keeps the parallel
  // region race-free). Arena buffers are reused across calls, so the
  // accumulators must be zeroed explicitly before the loop.
  const int workers = std::max(1, std::min<int>(num_threads(), static_cast<int>(n)));
  scratch_.prepare(workers);
  const int64_t gwsz = out_channels_ * krows;
  const int64_t gbsz = has_bias_ ? out_channels_ : 0;
  enum Slot { kCol = 0, kGcol = 1, kGw = 2, kGb = 3 };
  for (int tid = 0; tid < workers; ++tid) {
    float* gw = scratch_.floats(tid, kGw, gwsz);
    std::fill(gw, gw + gwsz, 0.0f);
    if (has_bias_) {
      float* gb = scratch_.floats(tid, kGb, gbsz);
      std::fill(gb, gb + gbsz, 0.0f);
    }
  }

  parallel_for(0, n, [&](int tid, int64_t i) {
    // Recompute im2col rather than caching per-image column matrices;
    // trades FLOPs for an O(batch) memory saving across deep stacks.
    float* col = scratch_.floats(tid, kCol, krows * cols);
    float* gcol = scratch_.floats(tid, kGcol, krows * cols);
    float* gw = scratch_.floats(tid, kGw, gwsz);
    GemmScratch& gs = scratch_.gemm(tid);
    im2col(input.data() + i * in_channels_ * h * w, g, col);
    const float* go = grad_output.data() + i * out_channels_ * cols;

    // dW += go[Cout, cols] * col[krows, cols]^T.
    gemm_nt_auto(go, col, gw, out_channels_, cols, krows, /*accumulate=*/true, &gs);

    // dcol = W^T[krows, Cout] * go[Cout, cols]; then col2im into grad_in.
    gemm_auto(wmatT.data(), go, gcol, krows, out_channels_, cols, /*accumulate=*/false, &gs);
    col2im(gcol, g, grad_in.data() + i * in_channels_ * h * w);

    if (has_bias_) {
      float* gb = scratch_.floats(tid, kGb, gbsz);
      for (int64_t c = 0; c < out_channels_; ++c) {
        const float* gorow = go + c * cols;
        double acc = 0.0;
        for (int64_t j = 0; j < cols; ++j) acc += gorow[j];
        gb[c] += static_cast<float>(acc);
      }
    }
  });

  for (int tid = 0; tid < workers; ++tid) {
    const float* gw = scratch_.floats(tid, kGw, gwsz);
    for (int64_t i = 0; i < gwsz; ++i) weight_.grad[i] += gw[i];
    if (has_bias_) {
      const float* gb = scratch_.floats(tid, kGb, gbsz);
      for (int64_t c = 0; c < out_channels_; ++c) bias_.grad[c] += gb[c];
    }
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

Tensor Conv2d::filter_matrix() const {
  return weight_.value.reshape({out_channels_, in_channels_ * kernel_ * kernel_});
}

void Conv2d::remove_out_channels(const std::vector<int64_t>& filters) {
  const auto removed = normalize_indices(filters, out_channels_, "Conv2d::remove_out_channels");
  if (removed.empty()) return;
  if (static_cast<int64_t>(removed.size()) >= out_channels_) {
    throw std::invalid_argument("Conv2d " + name_ + ": cannot remove all " +
                                std::to_string(out_channels_) + " filters");
  }
  const auto keep = surviving_indices(removed, out_channels_);
  const int64_t fsz = in_channels_ * kernel_ * kernel_;
  Tensor nw({static_cast<int64_t>(keep.size()), in_channels_, kernel_, kernel_});
  for (size_t k = 0; k < keep.size(); ++k) {
    const float* src = weight_.value.data() + keep[k] * fsz;
    std::copy(src, src + fsz, nw.data() + static_cast<int64_t>(k) * fsz);
  }
  weight_.assign(std::move(nw));
  if (has_bias_) {
    Tensor nb({static_cast<int64_t>(keep.size())});
    for (size_t k = 0; k < keep.size(); ++k) nb[static_cast<int64_t>(k)] = bias_.value[keep[k]];
    bias_.assign(std::move(nb));
  }
  out_channels_ = static_cast<int64_t>(keep.size());
  instrument_.reset_interventions();
}

void Conv2d::remove_in_channels(const std::vector<int64_t>& channels) {
  const auto removed = normalize_indices(channels, in_channels_, "Conv2d::remove_in_channels");
  if (removed.empty()) return;
  if (static_cast<int64_t>(removed.size()) >= in_channels_) {
    throw std::invalid_argument("Conv2d " + name_ + ": cannot remove all input channels");
  }
  const auto keep = surviving_indices(removed, in_channels_);
  const int64_t kk = kernel_ * kernel_;
  Tensor nw({out_channels_, static_cast<int64_t>(keep.size()), kernel_, kernel_});
  for (int64_t f = 0; f < out_channels_; ++f) {
    for (size_t k = 0; k < keep.size(); ++k) {
      const float* src = weight_.value.data() + (f * in_channels_ + keep[k]) * kk;
      float* dst = nw.data() + (f * static_cast<int64_t>(keep.size()) +
                                static_cast<int64_t>(k)) * kk;
      std::copy(src, src + kk, dst);
    }
  }
  weight_.assign(std::move(nw));
  in_channels_ = static_cast<int64_t>(keep.size());
}

}  // namespace capr::nn
