#include "compile/compiler.h"

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace capr::compile {

/// Friend of ExecutionPlan: the only writer of its private state.
struct PlanBuilder {
  ExecutionPlan plan;
  int next_slot = 0;

  int fresh_slot() { return next_slot++; }
  std::vector<Step>& steps() { return plan.steps_; }
  void set_folded(int n) { plan.folded_bn_ = n; }
  void set_fused(int n) { plan.fused_epilogues_ = n; }

  /// Number of steps reading `slot` (through either operand).
  int consumers_of(int slot) const {
    int n = 0;
    for (const Step& s : plan.steps_) {
      if (s.in0 == slot) ++n;
      if (s.in1 == slot) ++n;
    }
    return n;
  }

  std::shared_ptr<const ExecutionPlan> finish(const graph::ModuleGraph& g, int output_slot) {
    plan.input_ = g.input_shape();
    plan.num_slots_ = next_slot;
    plan.output_slot_ = output_slot;
    plan.interpreted_steps_ = 0;
    for (const Step& s : plan.steps_) {
      if (s.kind == StepKind::kInterpreted) ++plan.interpreted_steps_;
    }
    plan.recompute_scratch_floats();
    return std::make_shared<const ExecutionPlan>(std::move(plan));
  }
};

bool requires_interpreted_fallback(const nn::Layer* layer) {
  if (layer == nullptr) return false;
  const nn::Instrument& in = layer->instrument();
  return !in.channel_scale.empty() || in.zero_flat_index.has_value();
}

namespace {

std::vector<float> to_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// Pass 1: one step per node over numbered slots; Dropout elided.
void lower(const graph::ModuleGraph& g, PlanBuilder& b, std::vector<int>& slot_of) {
  slot_of.assign(g.nodes().size(), -1);
  for (const graph::Node& node : g.nodes()) {
    const int in0 = node.inputs.empty() ? -1 : slot_of[static_cast<size_t>(node.inputs[0])];

    if (requires_interpreted_fallback(node.layer)) {
      Step s;
      s.kind = StepKind::kInterpreted;
      s.nodes = {node.id};
      s.in0 = in0;
      s.out = b.fresh_slot();
      s.out_shape = node.out_shape;
      s.layer = node.layer;
      slot_of[static_cast<size_t>(node.id)] = s.out;
      b.steps().push_back(std::move(s));
      continue;
    }

    if (node.kind == graph::Kind::kDropout) {
      // Inference identity: alias the producer's slot, emit nothing.
      slot_of[static_cast<size_t>(node.id)] = in0;
      continue;
    }

    Step s;
    s.nodes = {node.id};
    s.in0 = in0;
    s.out_shape = node.out_shape;
    switch (node.kind) {
      case graph::Kind::kConv2d: {
        const auto* conv = dynamic_cast<const nn::Conv2d*>(node.layer);
        s.kind = StepKind::kConv;
        s.geom = ConvGeom{node.conv.in_channels, node.in_shape[1], node.in_shape[2],
                          node.conv.kernel,      node.conv.kernel, node.conv.stride,
                          node.conv.padding};
        s.out_channels = node.conv.out_channels;
        s.weight = conv->filter_matrix();
        if (conv->has_bias()) s.bias = conv->bias().value;
        if (direct_conv_eligible(s.geom)) {
          s.lowering = ConvLowering::kDirect;
          s.direct = direct_conv_map(s.geom);
        }
        break;
      }
      case graph::Kind::kBatchNorm2d: {
        const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(node.layer);
        s.kind = StepKind::kBatchNorm;
        s.bn_gamma = to_vector(bn->gamma().value);
        s.bn_beta = to_vector(bn->beta().value);
        s.bn_mean = to_vector(bn->running_mean());
        s.bn_var = to_vector(bn->running_var());
        s.bn_eps = bn->eps();
        break;
      }
      case graph::Kind::kReLU:
        s.kind = StepKind::kActivation;
        s.act = Epilogue::kReLU;
        break;
      case graph::Kind::kLeakyReLU: {
        const auto* lrelu = dynamic_cast<const nn::LeakyReLU*>(node.layer);
        s.kind = StepKind::kActivation;
        s.act = Epilogue::kLeakyReLU;
        s.alpha = lrelu->slope();
        break;
      }
      case graph::Kind::kMaxPool2d: {
        const auto* pool = dynamic_cast<const nn::MaxPool2d*>(node.layer);
        s.kind = StepKind::kMaxPool;
        s.window = pool->window();
        s.stride = pool->stride();
        break;
      }
      case graph::Kind::kAvgPool2d: {
        const auto* pool = dynamic_cast<const nn::AvgPool2d*>(node.layer);
        s.kind = StepKind::kAvgPool;
        s.window = pool->window();
        s.stride = pool->stride();
        break;
      }
      case graph::Kind::kGlobalAvgPool:
        s.kind = StepKind::kGlobalAvgPool;
        break;
      case graph::Kind::kFlatten:
        s.kind = StepKind::kFlatten;
        break;
      case graph::Kind::kLinear: {
        const auto* fc = dynamic_cast<const nn::Linear*>(node.layer);
        s.kind = StepKind::kLinear;
        s.out_channels = node.linear.out_features;
        s.weight = fc->weight().value;
        s.bias = fc->bias().value;  // Shape{0} (empty) when bias-less
        break;
      }
      case graph::Kind::kAdd:
        s.kind = StepKind::kAdd;
        s.in1 = slot_of[static_cast<size_t>(node.inputs[1])];
        break;
      case graph::Kind::kDropout:
        break;  // handled above
    }
    s.out = b.fresh_slot();
    slot_of[static_cast<size_t>(node.id)] = s.out;
    b.steps().push_back(std::move(s));
  }
}

/// Pass 2 (eps-bounded): BatchNorm folded into its sole-producer conv.
/// The fold runs in double precision: w' = w * gamma/sqrt(var + eps),
/// b' = beta + (b - mean) * gamma/sqrt(var + eps).
int fold_batchnorm(PlanBuilder& b) {
  int folded = 0;
  auto& steps = b.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind != StepKind::kBatchNorm) continue;
    Step* conv = nullptr;
    for (Step& p : steps) {
      if (p.kind == StepKind::kConv && p.out == steps[i].in0) {
        conv = &p;
        break;
      }
    }
    if (conv == nullptr) continue;
    // Legality: the BN must be the conv's only consumer; a second reader
    // of the pre-BN activation would observe folded values.
    if (b.consumers_of(conv->out) != 1) continue;

    Step& bn = steps[i];
    const int64_t cout = conv->out_channels;
    const int64_t krows = conv->weight.dim(1);
    Tensor bias({cout});
    for (int64_t c = 0; c < cout; ++c) {
      const double inv = 1.0 / std::sqrt(static_cast<double>(bn.bn_var[c]) +
                                         static_cast<double>(bn.bn_eps));
      const double scale = static_cast<double>(bn.bn_gamma[c]) * inv;
      float* row = conv->weight.data() + c * krows;
      for (int64_t k = 0; k < krows; ++k) {
        row[k] = static_cast<float>(static_cast<double>(row[k]) * scale);
      }
      const double b0 = conv->bias.empty() ? 0.0 : static_cast<double>(conv->bias[c]);
      bias[c] = static_cast<float>(static_cast<double>(bn.bn_beta[c]) +
                                   (b0 - static_cast<double>(bn.bn_mean[c])) * scale);
    }
    conv->bias = std::move(bias);
    conv->out = bn.out;
    conv->folded_bn = true;
    conv->nodes.insert(conv->nodes.end(), bn.nodes.begin(), bn.nodes.end());
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(i));
    --i;
    ++folded;
  }
  return folded;
}

/// Pass 3 (exact): a ReLU/LeakyReLU step merges into the write-back of
/// its sole producer. Element-wise, so fused output is bitwise identical.
int fuse_epilogues(PlanBuilder& b) {
  int fused = 0;
  auto& steps = b.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind != StepKind::kActivation) continue;
    Step* prod = nullptr;
    for (Step& p : steps) {
      if (&p == &steps[i] || p.out != steps[i].in0) continue;
      if (p.kind == StepKind::kInterpreted || p.kind == StepKind::kActivation) break;
      if (p.act != Epilogue::kNone) break;  // already carries an epilogue
      prod = &p;
      break;
    }
    if (prod == nullptr) continue;
    if (b.consumers_of(prod->out) != 1) continue;

    Step& act = steps[i];
    prod->act = act.act;
    prod->alpha = act.alpha;
    prod->out = act.out;
    prod->nodes.insert(prod->nodes.end(), act.nodes.begin(), act.nodes.end());
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(i));
    --i;
    ++fused;
  }
  return fused;
}

/// Pass 4 (exact): weights move into the tiled kernel's pack layouts so
/// the per-call re-pack disappears from the hot path.
void prepack_weights(PlanBuilder& b) {
  for (Step& s : b.steps()) {
    if (s.kind == StepKind::kConv) {
      // The strip layout depends on the GEMM config (mc/kc/mr), so
      // resolve the fixed config for the GEMM this step will actually
      // run — [out_channels, krows] x [krows, col_cols] — and bake it
      // into the PackedA. The packed executor replays exactly that
      // config, strategy included.
      const GemmTuneConfig cfg = resolve_gemm_config(
          GemmVariant::kNN, s.out_channels, s.weight.dim(1), s.geom.col_cols());
      s.packed_w = pack_a_full(s.weight.data(), s.out_channels, s.weight.dim(1), cfg);
      s.prepacked = true;
    } else if (s.kind == StepKind::kLinear) {
      s.packed_in = pack_b_nt(s.weight.data(), s.out_channels, s.weight.dim(1));
      s.prepacked = true;
    }
  }
}

}  // namespace

std::string CompileError::format() const {
  std::string out = "node " + std::to_string(node);
  if (!path.empty()) out += " (" + path + ")";
  out += ": " + message;
  return out;
}

CompileResult compile(const graph::ModuleGraph& g, const CompileOptions& opts) {
  CompileResult result;
  result.key = plan_key(hash_graph(g), opts);

  if (!g.ok()) {
    const graph::GraphError& err = *g.error();
    CompileError ce;
    ce.code = CompileError::Code::kIllFormedGraph;
    ce.node = err.node;
    ce.path = err.path;
    ce.message = err.format();
    result.errors.push_back(std::move(ce));
    return result;
  }
  if (g.nodes().empty()) {
    CompileError ce;
    ce.code = CompileError::Code::kEmptyGraph;
    ce.message = "graph has no nodes to compile";
    result.errors.push_back(std::move(ce));
    return result;
  }

  PlanBuilder b;
  std::vector<int> slot_of;
  lower(g, b, slot_of);
  if (opts.fold_batchnorm) b.set_folded(fold_batchnorm(b));
  b.set_fused(fuse_epilogues(b));
  prepack_weights(b);

  const int output_slot = slot_of[g.nodes().size() - 1];
  std::shared_ptr<const ExecutionPlan> plan = b.finish(g, output_slot);

  // Mandatory post-compile lint: every plan is machine-checked against
  // the graph it lowers before it can be returned, cached, or served.
  PlanLint lint = lint_plan(*plan, g);
  if (!lint.ok()) {
    result.lint = lint.diags();
    CompileError ce;
    ce.code = CompileError::Code::kPlanRejected;
    ce.message = "emitted plan failed verification:\n" + lint.to_string();
    result.errors.push_back(std::move(ce));
    return result;  // plan stays null: a rejected plan must never run
  }

  result.plan = std::move(plan);
  result.interpreted_nodes = result.plan->interpreted_steps();
  return result;
}

CompileResult compile_cached(const graph::ModuleGraph& g, const CompileOptions& opts,
                             PlanCache& cache) {
  const uint64_t key = plan_key(hash_graph(g), opts);
  if (auto plan = cache.find(key)) {
    CompileResult result;
    result.plan = std::move(plan);
    result.cache_hit = true;
    result.key = key;
    return result;
  }
  CompileResult result = compile(g, opts);
  if (result.plan && result.plan->shareable()) cache.insert(key, result.plan);
  return result;
}

}  // namespace capr::compile
