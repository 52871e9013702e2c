// The graph compiler: ModuleGraph -> ExecutionPlan.
//
// compile() runs a fixed pass pipeline (HACKING.md "Graph compiler"
// documents each pass and its legality rules):
//
//   1. lower            — one Step per graph node over numbered value
//                         slots; Dropout (inference identity) is elided
//                         by slot aliasing; any node whose layer has
//                         active read-only interventions (channel_scale
//                         or zero_flat_index) lowers to a kInterpreted
//                         fallback step so compiled serving honours them.
//                         Each conv records its lowering: kDirect with
//                         its offset map when direct_conv_eligible(geom),
//                         else kPanels.
//   2. fold_batchnorm   — folds a BatchNorm into its single-producer
//                         conv's weights/bias (double-precision fold;
//                         the one eps-bounded pass, and the only one
//                         CompileOptions can switch off).
//   3. fuse_epilogues   — merges a ReLU/LeakyReLU step into its single
//                         producer's write-back. Exact.
//   4. prepack_weights  — packs conv filter matrices into tiled A-strips
//                         and the linear weight into B-panels at build
//                         time. Exact; every conv step runs conv_image
//                         on its strips.
//   5. finalize         — slot count, output slot, stats.
//
// Compilation never throws on model problems: an ill-formed graph (or an
// empty one) produces a null plan plus recorded CompileError values
// naming the offending node, mirroring GraphError.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compile/cache.h"
#include "compile/plan.h"
#include "compile/verifier.h"
#include "graph/graph.h"

namespace capr::compile {

/// The one pass toggle. The exact passes always run; the eps-bounded BN
/// fold is on by default, and serving modes that need the bitwise
/// interpreted contract compile with fold_batchnorm = false
/// (serve/session.h).
struct CompileOptions {
  bool fold_batchnorm = true;

  /// Stable encoding mixed into the plan cache key.
  uint64_t bits() const { return fold_batchnorm ? 1u : 0u; }
};

/// A recorded compilation failure (never thrown).
struct CompileError {
  enum class Code {
    kIllFormedGraph,  // ModuleGraph::build stopped at a bad edge
    kEmptyGraph,      // no nodes to compile
    kPlanRejected,    // the emitted plan failed lint_plan (see CompileResult::lint)
  };
  Code code = Code::kIllFormedGraph;
  graph::NodeId node = graph::kNoNode;
  std::string path;     // flattened position of the offending node
  std::string message;  // human-readable diagnostic

  /// "node 7 (12.conv2): <message>"-style rendering.
  std::string format() const;
};

struct CompileResult {
  /// Null when compilation failed (see errors). Shared so sessions and
  /// the cache can hold the same immutable plan.
  std::shared_ptr<const ExecutionPlan> plan;
  std::vector<CompileError> errors;
  /// Verifier findings when the plan was rejected (kPlanRejected); empty
  /// on success — compile() never returns a plan that failed lint_plan.
  std::vector<PlanDiag> lint;
  /// Nodes that fell back to per-node interpretation (interventions).
  int interpreted_nodes = 0;
  bool cache_hit = false;
  uint64_t key = 0;  // plan_key(hash_graph(g), opts)
};

/// True when serving must honour a read-only intervention on this layer
/// (mask simulation / Eq. 3 zero-outs): the node cannot be lowered to a
/// native step and must fall back to forward_inference. Shared between
/// the lowering pass and the plan verifier so both sides of the
/// fallback-legality contract apply the same predicate.
bool requires_interpreted_fallback(const nn::Layer* layer);

/// Compiles a built graph. `g` must outlive nothing: the plan copies all
/// weights it needs, except for kInterpreted fallback steps which pin the
/// backing model (plan->shareable() reports which case applies).
CompileResult compile(const graph::ModuleGraph& g, const CompileOptions& opts = {});

/// compile() with a cache lookup first. Only shareable plans are stored.
CompileResult compile_cached(const graph::ModuleGraph& g, const CompileOptions& opts,
                             PlanCache& cache);

}  // namespace capr::compile
