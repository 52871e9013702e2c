// Machine-readable ModuleGraph dumps.
//
// to_json emits the deterministic "capr-module-graph-v1" document the
// golden topology tests and the CI drift gate pin: nodes (id, path,
// kind, name, shapes, param counts, edges, conv/linear attrs) and
// coupling groups, in graph order. Nothing volatile (pointers, weights,
// timestamps) enters the document, so two builds of the same
// architecture are bitwise identical.
//
// to_dot renders the same structure as Graphviz for eyeballing
// (capr-analyze --dump-dot).
#pragma once

#include <string>

#include "graph/graph.h"

namespace capr::graph {

/// `s` escaped as the body of a JSON string (quote, backslash, control
/// characters); a custom layer name or arch label could hold anything.
std::string json_escape(const std::string& s);

/// Pretty-printed JSON, trailing newline included. `arch` is recorded
/// as a JSON-escaped string ("" when unknown). Ill-formed graphs dump
/// their partial node list plus an "error" object.
std::string to_json(const ModuleGraph& g, const std::string& arch = "");

/// Graphviz digraph of nodes and data-flow edges; producers of prunable
/// coupling groups are highlighted, constrained producers marked.
std::string to_dot(const ModuleGraph& g, const std::string& arch = "");

}  // namespace capr::graph
