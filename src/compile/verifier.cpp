#include "compile/verifier.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "compile/compiler.h"
#include "tensor/gemm_tiled.h"

namespace capr::compile {
namespace {

std::string shape_str(const Shape& s) { return capr::to_string(s); }

PlanDiag diag(PlanDiagCode code, int step, graph::NodeId node, std::string message) {
  PlanDiag d;
  d.code = code;
  d.step = step;
  d.node = node;
  d.message = std::move(message);
  return d;
}

/// The native StepKind a graph node lowers to (pass 1 of the compiler);
/// kInterpreted is accepted for any kind and handled separately.
bool kind_matches(graph::Kind node_kind, StepKind step_kind) {
  switch (node_kind) {
    case graph::Kind::kConv2d: return step_kind == StepKind::kConv;
    case graph::Kind::kBatchNorm2d: return step_kind == StepKind::kBatchNorm;
    case graph::Kind::kReLU:
    case graph::Kind::kLeakyReLU: return step_kind == StepKind::kActivation;
    case graph::Kind::kMaxPool2d: return step_kind == StepKind::kMaxPool;
    case graph::Kind::kAvgPool2d: return step_kind == StepKind::kAvgPool;
    case graph::Kind::kGlobalAvgPool: return step_kind == StepKind::kGlobalAvgPool;
    case graph::Kind::kFlatten: return step_kind == StepKind::kFlatten;
    case graph::Kind::kLinear: return step_kind == StepKind::kLinear;
    case graph::Kind::kAdd: return step_kind == StepKind::kAdd;
    case graph::Kind::kDropout: return false;  // only ever elided or interpreted
  }
  return false;
}

/// Kinds the fusion passes may append to a producer's step (BN fold,
/// ReLU/LeakyReLU epilogue fusion). Anything else in a tail position is
/// a coverage lie.
bool fusable_kind(graph::Kind kind) {
  return kind == graph::Kind::kBatchNorm2d || kind == graph::Kind::kReLU ||
         kind == graph::Kind::kLeakyReLU;
}

/// Where a node's value lives after aliasing: the out slot of the step
/// covering it, or — for elided nodes — of the nearest covered producer
/// up the inputs[0] chain (the batch, slot -1, when the chain runs out).
struct Resolved {
  int slot = -1;
  graph::NodeId producer = graph::kNoNode;  // covered node the slot belongs to
  bool unknown = false;       // broken id / cycle: cannot resolve
  bool intermediate = false;  // resolves to a fused-away (non-final) node
};

/// ConvGeom::validate without the throw: a corrupted geometry must
/// become a finding, not an exception.
bool geom_valid(const ConvGeom& g) {
  return g.in_channels > 0 && g.in_h > 0 && g.in_w > 0 && g.kernel_h > 0 && g.kernel_w > 0 &&
         g.stride > 0 && g.padding >= 0 && g.out_h() > 0 && g.out_w() > 0;
}

}  // namespace

const char* to_string(PlanDiagCode code) {
  switch (code) {
    case PlanDiagCode::kSlotRange: return "E-PLAN-SLOT";
    case PlanDiagCode::kUseBeforeDef: return "E-PLAN-USE-BEFORE-DEF";
    case PlanDiagCode::kMultiWriter: return "E-PLAN-MULTI-WRITER";
    case PlanDiagCode::kBadAlias: return "E-PLAN-ALIAS";
    case PlanDiagCode::kStepOrder: return "E-PLAN-ORDER";
    case PlanDiagCode::kShapeDisagree: return "E-PLAN-SHAPE";
    case PlanDiagCode::kScratchUndersized: return "E-PLAN-SCRATCH";
    case PlanDiagCode::kPanelShape: return "E-PLAN-PANEL";
    case PlanDiagCode::kSpuriousFallback: return "E-PLAN-FALLBACK";
    case PlanDiagCode::kBadOutput: return "E-PLAN-OUTPUT";
  }
  return "E-PLAN-UNKNOWN";
}

std::string PlanDiag::format() const {
  std::string out = "[";
  out += compile::to_string(code);
  out += "]";
  if (step >= 0) out += " step " + std::to_string(step);
  if (node != graph::kNoNode) {
    out += step >= 0 ? ", " : " ";
    out += "node " + std::to_string(node);
  }
  out += ": " + message;
  return out;
}

bool PlanLint::has(PlanDiagCode code) const {
  for (const PlanDiag& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string PlanLint::to_string() const {
  std::string out;
  for (const PlanDiag& d : diags_) {
    if (!out.empty()) out += '\n';
    out += d.format();
  }
  return out;
}

PlanLint lint_plan(const ExecutionPlan& plan, const graph::ModuleGraph& g) {
  PlanLint lint;
  const std::vector<Step>& steps = plan.steps();
  const int num_slots = plan.slot_count();

  if (!g.ok()) {
    lint.add(diag(PlanDiagCode::kStepOrder, -1, graph::kNoNode,
                  "cannot verify plan against an ill-formed graph: " + g.error()->format()));
    return lint;
  }
  if (plan.input_shape() != g.input_shape()) {
    lint.add(diag(PlanDiagCode::kShapeDisagree, -1, graph::kNoNode,
                  "plan input shape " + shape_str(plan.input_shape()) +
                      " does not match graph input " + shape_str(g.input_shape())));
  }

  // ---- Pass 1: slot discipline (graph-independent) --------------------
  // Slot -1 is the input batch and always defined; every other slot must
  // be written exactly once, before any read.
  std::vector<bool> defined(num_slots > 0 ? static_cast<size_t>(num_slots) : 0, false);
  std::vector<int> writer(defined.size(), -1);
  const auto check_read = [&](int i, int slot, const char* operand) {
    if (slot < -1 || slot >= num_slots) {
      lint.add(diag(PlanDiagCode::kSlotRange, i, graph::kNoNode,
                    std::string(operand) + " slot " + std::to_string(slot) +
                        " outside [-1, " + std::to_string(num_slots) + ")"));
      return;
    }
    if (slot >= 0 && !defined[static_cast<size_t>(slot)]) {
      lint.add(diag(PlanDiagCode::kUseBeforeDef, i, graph::kNoNode,
                    std::string(operand) + " reads slot " + std::to_string(slot) +
                        " before any step writes it"));
    }
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    const int idx = static_cast<int>(i);
    check_read(idx, s.in0, "in0");
    if (s.kind == StepKind::kAdd) {
      check_read(idx, s.in1, "in1");
    } else if (s.in1 != -1) {
      lint.add(diag(PlanDiagCode::kSlotRange, idx, graph::kNoNode,
                    "second operand (slot " + std::to_string(s.in1) +
                        ") on a non-add step"));
    }
    if (s.out < 0 || s.out >= num_slots) {
      lint.add(diag(PlanDiagCode::kSlotRange, idx, graph::kNoNode,
                    "out slot " + std::to_string(s.out) + " outside [0, " +
                        std::to_string(num_slots) + ")"));
      continue;
    }
    if (writer[static_cast<size_t>(s.out)] != -1) {
      lint.add(diag(PlanDiagCode::kMultiWriter, idx, graph::kNoNode,
                    "slot " + std::to_string(s.out) + " already written by step " +
                        std::to_string(writer[static_cast<size_t>(s.out)])));
    }
    writer[static_cast<size_t>(s.out)] = idx;
    defined[static_cast<size_t>(s.out)] = true;
  }
  const int out_slot = plan.output_slot();
  if (out_slot < 0 || out_slot >= num_slots) {
    lint.add(diag(PlanDiagCode::kBadOutput, -1, graph::kNoNode,
                  "output slot " + std::to_string(out_slot) + " outside [0, " +
                      std::to_string(num_slots) + ")"));
  } else if (!defined[static_cast<size_t>(out_slot)]) {
    lint.add(diag(PlanDiagCode::kBadOutput, -1, graph::kNoNode,
                  "output slot " + std::to_string(out_slot) + " is never written"));
  }

  // ---- Pass 2: graph coverage and step order --------------------------
  const std::vector<graph::Node>& nodes = g.nodes();
  const auto n_nodes = static_cast<graph::NodeId>(nodes.size());
  std::vector<int> cover_step(nodes.size(), -1);
  std::vector<bool> is_final(nodes.size(), false);
  std::vector<bool> step_ok(steps.size(), true);  // node ids sane, graph checks apply
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    const int idx = static_cast<int>(i);
    if (s.nodes.empty()) {
      lint.add(diag(PlanDiagCode::kStepOrder, idx, graph::kNoNode,
                    "step covers no graph node"));
      step_ok[i] = false;
      continue;
    }
    for (graph::NodeId nid : s.nodes) {
      if (nid < 0 || nid >= n_nodes) {
        lint.add(diag(PlanDiagCode::kSlotRange, idx, nid,
                      "unknown graph node (graph has " + std::to_string(n_nodes) +
                          " nodes)"));
        step_ok[i] = false;
      }
    }
    if (!step_ok[i]) continue;
    for (graph::NodeId nid : s.nodes) {
      const auto ni = static_cast<size_t>(nid);
      if (cover_step[ni] != -1) {
        lint.add(diag(PlanDiagCode::kStepOrder, idx, nid,
                      "node already covered by step " + std::to_string(cover_step[ni])));
        step_ok[i] = false;
        continue;
      }
      cover_step[ni] = idx;
    }
    if (!step_ok[i]) continue;
    is_final[static_cast<size_t>(s.nodes.back())] = true;
    // A fused tail must be a fusable kind that consumes its predecessor:
    // the fold/fuse passes only merge a node into the step producing its
    // sole input.
    for (size_t k = 1; k < s.nodes.size(); ++k) {
      const graph::Node& tail = nodes[static_cast<size_t>(s.nodes[k])];
      if (!fusable_kind(tail.kind)) {
        lint.add(diag(PlanDiagCode::kStepOrder, idx, tail.id,
                      std::string("fused node of kind ") + graph::to_string(tail.kind) +
                          " is not a fusable epilogue"));
      }
      const graph::NodeId prev = s.nodes[k - 1];
      if (std::find(tail.inputs.begin(), tail.inputs.end(), prev) == tail.inputs.end()) {
        lint.add(diag(PlanDiagCode::kStepOrder, idx, tail.id,
                      "fused node does not consume its predecessor node " +
                          std::to_string(prev)));
      }
    }
  }
  for (const graph::Node& node : nodes) {
    if (cover_step[static_cast<size_t>(node.id)] != -1) continue;
    if (node.kind != graph::Kind::kDropout) {
      lint.add(diag(PlanDiagCode::kBadAlias, -1, node.id,
                    std::string("node of kind ") + graph::to_string(node.kind) +
                        " was elided but is not an inference identity"));
    }
  }

  // Resolves where `nid`'s value lives after dropout elision.
  const auto resolve = [&](graph::NodeId nid) {
    Resolved r;
    int64_t guard = 0;
    while (true) {
      if (nid < 0 || nid >= n_nodes || ++guard > n_nodes + 1) {
        r.unknown = true;
        return r;
      }
      const auto ni = static_cast<size_t>(nid);
      if (cover_step[ni] != -1) {
        r.producer = nid;
        r.slot = steps[static_cast<size_t>(cover_step[ni])].out;
        r.intermediate = !is_final[ni];
        return r;
      }
      // Elided node: its value aliases its producer's (the batch when
      // the chain runs out at an input-consuming identity).
      if (nodes[ni].inputs.empty()) return r;  // slot -1
      nid = nodes[ni].inputs[0];
    }
  };

  const auto check_operand = [&](int idx, const graph::Node& first, size_t input_index,
                                 int got_slot, const char* operand) {
    if (first.inputs.size() <= input_index) {
      if (got_slot != -1) {
        lint.add(diag(PlanDiagCode::kBadAlias, idx, first.id,
                      std::string(operand) + " is slot " + std::to_string(got_slot) +
                          " but the node reads the input batch"));
      }
      return;
    }
    const Resolved r = resolve(first.inputs[input_index]);
    if (r.unknown) {
      lint.add(diag(PlanDiagCode::kBadAlias, idx, first.id,
                    std::string(operand) + ": cannot resolve graph input " +
                        std::to_string(first.inputs[input_index])));
      return;
    }
    if (r.intermediate) {
      lint.add(diag(PlanDiagCode::kBadAlias, idx, first.id,
                    std::string(operand) + " reads node " + std::to_string(r.producer) +
                        ", which was fused away into the middle of step " +
                        std::to_string(cover_step[static_cast<size_t>(r.producer)])));
      return;
    }
    if (r.slot != got_slot) {
      lint.add(diag(PlanDiagCode::kBadAlias, idx, first.id,
                    std::string(operand) + " is slot " + std::to_string(got_slot) +
                        " but graph input " + std::to_string(first.inputs[input_index]) +
                        " lives in slot " + std::to_string(r.slot)));
      return;
    }
    if (r.producer != graph::kNoNode) {
      const int prod_step = cover_step[static_cast<size_t>(r.producer)];
      if (prod_step >= idx) {
        lint.add(diag(PlanDiagCode::kStepOrder, idx, first.id,
                      std::string(operand) + " consumes node " + std::to_string(r.producer) +
                          ", produced only later by step " + std::to_string(prod_step)));
      }
    }
  };

  for (size_t i = 0; i < steps.size(); ++i) {
    if (!step_ok[i]) continue;
    const Step& s = steps[i];
    const int idx = static_cast<int>(i);
    const graph::Node& first = nodes[static_cast<size_t>(s.nodes.front())];
    const graph::Node& last = nodes[static_cast<size_t>(s.nodes.back())];

    if (s.kind != StepKind::kInterpreted && !kind_matches(first.kind, s.kind)) {
      lint.add(diag(PlanDiagCode::kStepOrder, idx, first.id,
                    std::string("step kind ") + compile::to_string(s.kind) +
                        " does not lower a node of kind " + graph::to_string(first.kind)));
    }
    check_operand(idx, first, 0, s.in0, "in0");
    if (s.kind == StepKind::kAdd) check_operand(idx, first, 1, s.in1, "in1");

    if (s.out_shape != last.out_shape) {
      lint.add(diag(PlanDiagCode::kShapeDisagree, idx, last.id,
                    "step out_shape " + shape_str(s.out_shape) +
                        " does not match the node's resolved shape " +
                        shape_str(last.out_shape)));
    }

    // ---- Fallback legality ------------------------------------------
    if (s.kind == StepKind::kInterpreted) {
      if (s.nodes.size() != 1) {
        lint.add(diag(PlanDiagCode::kSpuriousFallback, idx, first.id,
                      "interpreted fallback covering more than one node"));
      }
      if (s.layer == nullptr) {
        lint.add(diag(PlanDiagCode::kSpuriousFallback, idx, first.id,
                      "interpreted step has no backing layer"));
      } else if (s.layer != first.layer) {
        lint.add(diag(PlanDiagCode::kSpuriousFallback, idx, first.id,
                      "interpreted step's layer is not the covered node's layer"));
      } else if (!requires_interpreted_fallback(s.layer)) {
        lint.add(diag(PlanDiagCode::kSpuriousFallback, idx, first.id,
                      "interpreted fallback on a node without active interventions"));
      }
    } else {
      for (graph::NodeId nid : s.nodes) {
        const graph::Node& node = nodes[static_cast<size_t>(nid)];
        if (requires_interpreted_fallback(node.layer)) {
          lint.add(diag(PlanDiagCode::kSpuriousFallback, idx, nid,
                        "node carries active interventions but was lowered natively "
                        "(missing fallback)"));
        }
      }
    }
  }

  // ---- Pass 3: step geometry and packed-operand layout ----------------
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    const int idx = static_cast<int>(i);
    if (s.kind == StepKind::kConv) {
      const int64_t krows = s.geom.col_rows();
      if (s.weight.rank() != 2 || s.weight.dim(0) != s.out_channels ||
          s.weight.dim(1) != krows) {
        lint.add(diag(PlanDiagCode::kShapeDisagree, idx, graph::kNoNode,
                      "conv weight " + shape_str(s.weight.shape()) +
                          " does not match [out_channels, col_rows] = [" +
                          std::to_string(s.out_channels) + ", " + std::to_string(krows) +
                          "]"));
      }
      const Shape want{s.out_channels, s.geom.out_h(), s.geom.out_w()};
      if (s.out_shape != want) {
        lint.add(diag(PlanDiagCode::kShapeDisagree, idx, graph::kNoNode,
                      "conv out_shape " + shape_str(s.out_shape) +
                          " does not match its geometry " + shape_str(want)));
      }
      if (!s.bias.empty() && s.bias.numel() != s.out_channels) {
        lint.add(diag(PlanDiagCode::kShapeDisagree, idx, graph::kNoNode,
                      "conv bias has " + std::to_string(s.bias.numel()) +
                          " floats for " + std::to_string(s.out_channels) + " channels"));
      }
      // The recorded lowering must be the one the eligibility function
      // picks, and a direct step's offset map the one its geometry
      // implies: the GEMM trusts every offset to land inside the planes.
      const bool eligible = geom_valid(s.geom) && direct_conv_eligible(s.geom);
      if ((s.lowering == ConvLowering::kDirect) != eligible) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      std::string("conv lowering is \"") + compile::to_string(s.lowering) +
                          "\" but the geometry is " + (eligible ? "" : "not ") +
                          "eligible for the direct path"));
      } else if (s.lowering == ConvLowering::kDirect && s.direct.rows() != krows) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "direct conv offset table has " + std::to_string(s.direct.rows()) +
                          " entries for " + std::to_string(krows) + " column-matrix rows"));
      } else if (s.lowering == ConvLowering::kDirect && s.direct != direct_conv_map(s.geom)) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "direct conv offset map disagrees with the one its geometry implies"));
      } else if (s.lowering == ConvLowering::kPanels && s.direct.run != 0) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "panels conv carries an offset map, which would send it down the "
                      "direct path"));
      }
      // Every conv step runs conv_image on packed_w under the tiled
      // kernel, so the strips must be the weight's, laid out for a legal
      // config.
      if (s.packed_w.rows != s.out_channels || s.packed_w.depth != krows) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "packed conv strips are [" + std::to_string(s.packed_w.rows) +
                          ", " + std::to_string(s.packed_w.depth) +
                          "] for a logical [" + std::to_string(s.out_channels) + ", " +
                          std::to_string(krows) + "] weight"));
      } else if (std::string why; !gemm_config_valid(s.packed_w.cfg, &why)) {
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "packed conv strips record an illegal GEMM config: " + why));
      } else if (const GemmTuneConfig& cfg = s.packed_w.cfg;
                 s.packed_w.kblocks != (krows + cfg.kc - 1) / cfg.kc ||
                 s.packed_w.block_offset.size() !=
                     static_cast<size_t>(((s.out_channels + cfg.mc - 1) / cfg.mc) *
                                         s.packed_w.kblocks) ||
                 s.packed_w.strips.size() !=
                     static_cast<size_t>(gemm_apack_all_floats(
                         s.packed_w.rows, s.packed_w.depth, cfg))) {
        // Exact recompute from the recorded config: block count and
        // strip floats must match the pack_a_full layout to the float.
        lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                      "packed conv strip buffer holds " +
                          std::to_string(s.packed_w.strips.size()) +
                          " floats in " + std::to_string(s.packed_w.kblocks) +
                          " k-blocks; the recorded config (mc=" +
                          std::to_string(cfg.mc) + " kc=" + std::to_string(cfg.kc) +
                          " mr=" + std::to_string(cfg.mr) + ") lays out " +
                          std::to_string(gemm_apack_all_floats(
                              s.packed_w.rows, s.packed_w.depth, cfg)) +
                          " floats in " +
                          std::to_string((krows + cfg.kc - 1) / cfg.kc) + " k-blocks"));
      }
    } else if (s.kind == StepKind::kLinear) {
      if (s.weight.rank() != 2 || s.weight.dim(0) != s.out_channels) {
        lint.add(diag(PlanDiagCode::kShapeDisagree, idx, graph::kNoNode,
                      "linear weight " + shape_str(s.weight.shape()) + " does not have " +
                          std::to_string(s.out_channels) + " output rows"));
      }
      if (s.packed_in.finite) {
        if (s.packed_in.depth != s.weight.dim(1) || s.packed_in.cols != s.out_channels) {
          lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                        "packed linear panels are [K=" + std::to_string(s.packed_in.depth) +
                            ", N=" + std::to_string(s.packed_in.cols) +
                            "] for a logical [K=" + std::to_string(s.weight.dim(1)) +
                            ", N=" + std::to_string(s.out_channels) + "] operand"));
        } else if (s.packed_in.panels.size() !=
                   static_cast<size_t>(packed_b_floats(s.packed_in.depth, s.packed_in.cols))) {
          lint.add(diag(PlanDiagCode::kPanelShape, idx, graph::kNoNode,
                        "packed linear panel buffer holds " +
                            std::to_string(s.packed_in.panels.size()) + " floats, layout needs " +
                            std::to_string(packed_b_floats(s.packed_in.depth,
                                                           s.packed_in.cols))));
        }
      }
    } else if (s.kind == StepKind::kBatchNorm) {
      const int64_t c = s.out_shape.empty() ? -1 : s.out_shape[0];
      const auto want = static_cast<size_t>(c < 0 ? 0 : c);
      if (s.bn_gamma.size() != want || s.bn_beta.size() != want ||
          s.bn_mean.size() != want || s.bn_var.size() != want) {
        lint.add(diag(PlanDiagCode::kShapeDisagree, idx, graph::kNoNode,
                      "batchnorm parameter vectors do not all have " +
                          std::to_string(c) + " channels"));
      }
    }
  }

  // ---- Pass 4: scratch pre-size sufficiency ---------------------------
  // The executor's per-worker demand model (conv_scratch_floats: slot 0
  // direct planes or packed panels, slot 1 plain column matrices), so a
  // plan whose declared pre-size lies is caught before warm() ever
  // trusts it.
  const int64_t demand = conv_scratch_floats(steps);
  if (plan.scratch_floats() < demand) {
    lint.add(diag(PlanDiagCode::kScratchUndersized, -1, graph::kNoNode,
                  "declared scratch pre-size " + std::to_string(plan.scratch_floats()) +
                      " floats is below the worst-case step demand of " +
                      std::to_string(demand)));
  }

  return lint;
}

}  // namespace capr::compile
