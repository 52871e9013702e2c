// Machine-readable ExecutionPlan dumps.
//
// to_json emits the deterministic "capr-exec-plan-v1" document pinned by
// the golden plan tests and the CI drift gate (capr-analyze --dump-plan):
// compile options, the structural graph hash (the platform-stable half of
// GraphHash — no weight bytes), and every step with its covered nodes,
// value slots, epilogue, fold/prepack state and derived buffer sizes.
// Nothing volatile (pointers, weights, timestamps) enters the document,
// so two builds of the same architecture are bitwise identical.
#pragma once

#include <string>

#include "compile/compiler.h"
#include "graph/graph.h"

namespace capr::compile {

/// Pretty-printed JSON, trailing newline included. `g` must be the graph
/// `plan` was compiled from (its structural hash is recorded); `arch` is
/// recorded as a JSON-escaped string ("" when unknown).
std::string to_json(const ExecutionPlan& plan, const graph::ModuleGraph& g,
                    const CompileOptions& opts, const std::string& arch = "");

}  // namespace capr::compile
