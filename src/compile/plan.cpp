#include "compile/plan.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/eval_kernels.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"

namespace capr::compile {
namespace {

nn::EvalAct to_eval_act(Epilogue act) {
  switch (act) {
    case Epilogue::kReLU: return nn::EvalAct::kReLU;
    case Epilogue::kLeakyReLU: return nn::EvalAct::kLeakyReLU;
    case Epilogue::kNone: break;
  }
  return nn::EvalAct::kNone;
}

/// Unfused activation pass over a contiguous range: the exact single-op
/// loops of ReLU::forward_inference / LeakyReLU::forward_inference.
void apply_act(Epilogue act, float alpha, float* p, int64_t count) {
  if (act == Epilogue::kReLU) {
    for (int64_t i = 0; i < count; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  } else if (act == Epilogue::kLeakyReLU) {
    for (int64_t i = 0; i < count; ++i) p[i] = p[i] > 0.0f ? p[i] : alpha * p[i];
  }
}

void exec_conv(const Step& s, const Tensor& in, Tensor& out, ScratchArena& arena) {
  const ConvGeom& g = s.geom;
  const int64_t n = in.dim(0);
  const int64_t in_stride = g.in_channels * g.in_h * g.in_w;
  const int64_t out_stride = s.out_channels * g.col_cols();
  out.reset({n, s.out_channels, g.out_h(), g.out_w()});
  // Worker layout mirrors Conv2d::compute_forward so the parallel_for
  // decisions (and therefore every nested-GEMM dispatch) are identical.
  const int workers = std::max(1, std::min<int>(num_threads(), static_cast<int>(n)));
  arena.prepare(workers);
  GemmEpilogue ep;
  ep.bias_row = s.bias.empty() ? nullptr : s.bias.data();
  ep.act = static_cast<int>(s.act);
  ep.alpha = s.alpha;
  parallel_for(0, n, [&](int tid, int64_t i) {
    conv_image(s.packed_w, s.weight.data(), in.data() + i * in_stride, g, s.direct, arena, tid,
               out.data() + i * out_stride, ep);
  });
}

void exec_batchnorm(const Step& s, const Tensor& in, Tensor& out) {
  const int64_t n = in.dim(0);
  const int64_t c = s.out_shape[0];
  const int64_t plane = s.out_shape[1] * s.out_shape[2];
  out.reset({n, c, s.out_shape[1], s.out_shape[2]});
  nn::bn_eval(in.data(), out.data(), nullptr, nullptr, n, c, plane, s.bn_gamma.data(),
              s.bn_beta.data(), s.bn_mean.data(), s.bn_var.data(), s.bn_eps, to_eval_act(s.act),
              s.alpha);
}

void exec_activation(const Step& s, const Tensor& in, Tensor& out) {
  Shape shape = in.shape();
  out.reset(std::move(shape));
  const float* p = in.data();
  float* o = out.data();
  const int64_t count = in.numel();
  if (s.act == Epilogue::kLeakyReLU) {
    const float slope = s.alpha;
    for (int64_t i = 0; i < count; ++i) o[i] = p[i] > 0.0f ? p[i] : slope * p[i];
  } else {
    for (int64_t i = 0; i < count; ++i) o[i] = p[i] > 0.0f ? p[i] : 0.0f;
  }
}

void exec_add(const Step& s, const Tensor& a, const Tensor& b, Tensor& out) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("ExecutionPlan: residual add shape mismatch");
  }
  Shape shape = a.shape();
  out.reset(std::move(shape));
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  const int64_t count = a.numel();
  if (s.act == Epilogue::kReLU) {
    // t = a + b then ReLU on the rounded sum: bitwise add_inplace
    // followed by the separate ReLU pass.
    for (int64_t i = 0; i < count; ++i) {
      const float t = pa[i] + pb[i];
      o[i] = t > 0.0f ? t : 0.0f;
    }
  } else if (s.act == Epilogue::kLeakyReLU) {
    const float slope = s.alpha;
    for (int64_t i = 0; i < count; ++i) {
      const float t = pa[i] + pb[i];
      o[i] = t > 0.0f ? t : slope * t;
    }
  } else {
    for (int64_t i = 0; i < count; ++i) o[i] = pa[i] + pb[i];
  }
}

void exec_maxpool(const Step& s, const Tensor& in, Tensor& out) {
  const int64_t n = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oh = s.out_shape[1], ow = s.out_shape[2];
  out.reset({n, c, oh, ow});
  int64_t oidx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in.data() + (i * c + ch) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          for (int64_t dy = 0; dy < s.window; ++dy) {
            const int64_t iy = y * s.stride + dy;
            for (int64_t dx = 0; dx < s.window; ++dx) {
              const int64_t ix = x * s.stride + dx;
              const float v = plane[iy * w + ix];
              if (v > best) best = v;
            }
          }
          out[oidx] = best;
        }
      }
    }
  }
  apply_act(s.act, s.alpha, out.data(), out.numel());
}

void exec_avgpool(const Step& s, const Tensor& in, Tensor& out) {
  const int64_t n = in.dim(0), c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oh = s.out_shape[1], ow = s.out_shape[2];
  out.reset({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(s.window * s.window);
  int64_t oidx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in.data() + (i * c + ch) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x, ++oidx) {
          double acc = 0.0;
          for (int64_t dy = 0; dy < s.window; ++dy) {
            const float* row = plane + (y * s.stride + dy) * w + x * s.stride;
            for (int64_t dx = 0; dx < s.window; ++dx) acc += row[dx];
          }
          out[oidx] = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  apply_act(s.act, s.alpha, out.data(), out.numel());
}

void exec_gavgpool(const Step& s, const Tensor& in, Tensor& out) {
  const int64_t n = in.dim(0), c = in.dim(1), plane = in.dim(2) * in.dim(3);
  out.reset({n, c});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* p = in.data() + (i * c + ch) * plane;
      double acc = 0.0;
      for (int64_t k = 0; k < plane; ++k) acc += p[k];
      out[i * c + ch] = static_cast<float>(acc / plane);
    }
  }
  apply_act(s.act, s.alpha, out.data(), out.numel());
}

void exec_flatten(const Step& s, const Tensor& in, Tensor& out) {
  const int64_t n = in.dim(0);
  out.reset({n, s.out_shape[0]});
  std::memcpy(out.data(), in.data(), static_cast<size_t>(in.numel()) * sizeof(float));
  apply_act(s.act, s.alpha, out.data(), out.numel());
}

void exec_linear(const Step& s, const Tensor& in, Tensor& out, ScratchArena& arena) {
  const int64_t n = in.dim(0);
  const int64_t infeat = in.dim(1);
  const int64_t outfeat = s.out_channels;
  out.reset({n, outfeat});
  arena.prepare(1);
  const bool tiled = gemm_kernel() == GemmKernel::kTiled;
  if (tiled && s.packed_in.finite) {
    GemmEpilogue ep;
    ep.bias_col = s.bias.empty() ? nullptr : s.bias.data();
    ep.act = static_cast<int>(s.act);
    ep.alpha = s.alpha;
    gemm_tiled_packed_nt(in.data(), s.packed_in, out.data(), n, ep, &arena.gemm(0));
    return;
  }
  if (tiled) {
    // The weight scan found non-finite values: the per-call tiled NT
    // kernel, which itself takes the transpose + strong-zero reference
    // fallback exactly as matmul_nt would.
    gemm_tiled_nt(in.data(), s.weight.data(), out.data(), n, infeat, outfeat,
                  /*accumulate=*/false, &arena.gemm(0));
  } else {
    gemm_nt_ref_rows(in.data(), s.weight.data(), out.data(), n, infeat, outfeat);
  }
  if (!s.bias.empty()) {
    for (int64_t i = 0; i < n; ++i) {
      float* row = out.data() + i * outfeat;
      for (int64_t j = 0; j < outfeat; ++j) row[j] += s.bias[j];
    }
  }
  apply_act(s.act, s.alpha, out.data(), out.numel());
}

}  // namespace

const char* to_string(StepKind kind) {
  switch (kind) {
    case StepKind::kConv: return "conv";
    case StepKind::kBatchNorm: return "batchnorm";
    case StepKind::kActivation: return "activation";
    case StepKind::kAdd: return "add";
    case StepKind::kMaxPool: return "maxpool";
    case StepKind::kAvgPool: return "avgpool";
    case StepKind::kGlobalAvgPool: return "gavgpool";
    case StepKind::kFlatten: return "flatten";
    case StepKind::kLinear: return "linear";
    case StepKind::kInterpreted: return "interpreted";
  }
  return "unknown";
}

const char* to_string(ConvLowering lowering) {
  return lowering == ConvLowering::kDirect ? "direct" : "panels";
}

const Tensor& ExecutionPlan::value(int slot, const Tensor& batch,
                                   nn::InferScratch& scratch) const {
  return slot < 0 ? batch : scratch.slots[static_cast<size_t>(slot)];
}

void ExecutionPlan::exec_step(const Step& s, const Tensor& batch,
                              nn::InferScratch& scratch) const {
  const Tensor& in = value(s.in0, batch, scratch);
  Tensor& out = scratch.slots[static_cast<size_t>(s.out)];
  switch (s.kind) {
    case StepKind::kConv: exec_conv(s, in, out, scratch.arena); break;
    case StepKind::kBatchNorm: exec_batchnorm(s, in, out); break;
    case StepKind::kActivation: exec_activation(s, in, out); break;
    case StepKind::kAdd: exec_add(s, in, value(s.in1, batch, scratch), out); break;
    case StepKind::kMaxPool: exec_maxpool(s, in, out); break;
    case StepKind::kAvgPool: exec_avgpool(s, in, out); break;
    case StepKind::kGlobalAvgPool: exec_gavgpool(s, in, out); break;
    case StepKind::kFlatten: exec_flatten(s, in, out); break;
    case StepKind::kLinear: exec_linear(s, in, out, scratch.arena); break;
    case StepKind::kInterpreted: out = s.layer->forward_inference(in, scratch); break;
  }
}

const Tensor& ExecutionPlan::run_ref(const Tensor& batch, nn::InferScratch& scratch) const {
  if (batch.rank() != static_cast<int64_t>(input_.size()) + 1) {
    throw std::invalid_argument("ExecutionPlan: batch rank " + std::to_string(batch.rank()) +
                                " does not match compiled input " + capr::to_string(input_));
  }
  for (size_t d = 0; d < input_.size(); ++d) {
    if (batch.dim(static_cast<int64_t>(d) + 1) != input_[d]) {
      throw std::invalid_argument("ExecutionPlan: batch shape " + capr::to_string(batch.shape()) +
                                  " does not match compiled input " + capr::to_string(input_));
    }
  }
  if (scratch.slots.size() < static_cast<size_t>(num_slots_)) {
    scratch.slots.resize(static_cast<size_t>(num_slots_));
  }
  for (const Step& s : steps_) exec_step(s, batch, scratch);
  return scratch.slots[static_cast<size_t>(output_slot_)];
}

Tensor ExecutionPlan::run(const Tensor& batch, nn::InferScratch& scratch) const {
  return run_ref(batch, scratch);
}

void ExecutionPlan::warm(nn::InferScratch& scratch, int64_t max_batch) const {
  if (max_batch < 1) max_batch = 1;
  // Pre-size the linear steps' GEMM scratch for the config dispatch
  // resolves on their shape, then run one zero batch so the arena slot
  // buffers also reach steady state. After warm() the hot loop allocates
  // nothing. A conv step never touches GemmScratch (its A is pre-packed,
  // and the reference fallback runs without one).
  scratch.arena.prepare(1);
  for (const Step& s : steps_) {
    if (s.kind == StepKind::kLinear && s.weight.rank() == 2) {
      reserve_gemm_scratch(scratch.arena.gemm(0), GemmVariant::kNT, max_batch,
                           s.weight.dim(1), s.out_channels);
    }
  }
  Shape shape;
  shape.reserve(input_.size() + 1);
  shape.push_back(max_batch);
  for (int64_t e : input_) shape.push_back(e);
  const Tensor zero(shape);
  (void)run_ref(zero, scratch);
}

int64_t ExecutionPlan::prepacked_floats() const {
  int64_t total = 0;
  for (const Step& s : steps_) {
    total += static_cast<int64_t>(s.packed_w.strips.size());
    total += static_cast<int64_t>(s.packed_in.panels.size());
  }
  return total;
}

int64_t conv_scratch_floats(const std::vector<Step>& steps) {
  int64_t operand = 0, col = 0;
  for (const Step& s : steps) {
    if (s.kind != StepKind::kConv) continue;
    const int64_t krows = s.geom.col_rows();
    const int64_t cols = s.geom.col_cols();
    operand = std::max(operand, s.lowering == ConvLowering::kDirect
                                    ? direct_plane_floats(s.geom)
                                    : packed_b_floats(krows, cols));
    col = std::max(col, krows * cols);
  }
  return operand + col;
}

void ExecutionPlan::recompute_scratch_floats() { scratch_floats_ = conv_scratch_floats(steps_); }

}  // namespace capr::compile
