#include "graph/dump.h"

#include <cstdio>
#include <sstream>

namespace capr::graph {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void shape_json(std::ostringstream& os, const Shape& s) {
  os << '[';
  for (size_t i = 0; i < s.size(); ++i) {
    if (i != 0) os << ", ";
    os << s[i];
  }
  os << ']';
}

void ids_json(std::ostringstream& os, const std::vector<NodeId>& ids) {
  os << '[';
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ", ";
    os << ids[i];
  }
  os << ']';
}

const char* error_code(GraphError::Code code) {
  switch (code) {
    case GraphError::Code::kShapeMismatch: return "shape-mismatch";
    case GraphError::Code::kUnknownLayer: return "unknown-layer";
    case GraphError::Code::kResidualShape: return "residual-shape";
  }
  return "unknown";
}

}  // namespace

std::string to_json(const ModuleGraph& g, const std::string& arch) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"capr-module-graph-v1\",\n";
  os << "  \"arch\": \"" << json_escape(arch) << "\",\n";
  os << "  \"input_shape\": ";
  shape_json(os, g.input_shape());
  os << ",\n  \"output_shape\": ";
  shape_json(os, g.output_shape());
  os << ",\n  \"nodes\": [\n";
  const auto& nodes = g.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    os << "    {\"id\": " << n.id << ", \"path\": \"" << json_escape(n.path) << "\", \"kind\": \""
       << to_string(n.kind) << "\", \"name\": \"" << json_escape(n.name) << "\", \"in\": ";
    shape_json(os, n.in_shape);
    os << ", \"out\": ";
    shape_json(os, n.out_shape);
    os << ", \"params\": " << n.params << ", \"inputs\": ";
    ids_json(os, n.inputs);
    os << ", \"outputs\": ";
    ids_json(os, n.outputs);
    if (n.kind == Kind::kConv2d) {
      os << ", \"attrs\": {\"in_channels\": " << n.conv.in_channels
         << ", \"out_channels\": " << n.conv.out_channels << ", \"kernel\": " << n.conv.kernel
         << ", \"stride\": " << n.conv.stride << ", \"padding\": " << n.conv.padding
         << ", \"bias\": " << (n.conv.bias ? "true" : "false") << "}";
    } else if (n.kind == Kind::kLinear) {
      os << ", \"attrs\": {\"in_features\": " << n.linear.in_features
         << ", \"out_features\": " << n.linear.out_features << "}";
    }
    os << "}" << (i + 1 < nodes.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"groups\": [\n";
  const auto& groups = g.groups();
  for (size_t i = 0; i < groups.size(); ++i) {
    const CouplingGroup& grp = groups[i];
    os << "    {\"name\": \"" << json_escape(grp.name) << "\", \"producer\": " << grp.producer
       << ", \"bn\": " << grp.bn << ", \"score_point\": " << grp.score_point
       << ", \"residual_constrained\": " << (grp.residual_constrained ? "true" : "false")
       << ", \"consumers\": [";
    for (size_t c = 0; c < grp.consumers.size(); ++c) {
      if (c != 0) os << ", ";
      os << "{\"node\": " << grp.consumers[c].node
         << ", \"spatial\": " << grp.consumers[c].spatial << "}";
    }
    os << "]}" << (i + 1 < groups.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (!g.ok()) {
    const GraphError& e = *g.error();
    os << ",\n  \"error\": {\"code\": \"" << error_code(e.code) << "\", \"node\": " << e.node
       << ", \"path\": \"" << json_escape(e.path) << "\", \"kind\": \"" << json_escape(e.kind)
       << "\", \"message\": \"" << json_escape(e.message) << "\"}";
  }
  os << "\n}\n";
  return os.str();
}

std::string to_dot(const ModuleGraph& g, const std::string& arch) {
  std::ostringstream os;
  os << "digraph capr_module_graph {\n";
  if (!arch.empty()) os << "  label=\"" << json_escape(arch) << "\";\n";
  os << "  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n";
  // Producer highlighting from the coupling groups.
  std::vector<int> role(g.nodes().size(), 0);  // 1 = prunable, 2 = constrained
  for (const CouplingGroup& grp : g.groups()) {
    if (grp.producer == kNoNode) continue;
    const bool prunable = !grp.residual_constrained && !grp.consumers.empty();
    role[static_cast<size_t>(grp.producer)] = prunable ? 1 : 2;
  }
  for (const Node& n : g.nodes()) {
    os << "  n" << n.id << " [label=\"" << json_escape(n.path) << ": " << to_string(n.kind);
    if (!n.name.empty()) os << "\\n" << json_escape(n.name);
    os << "\\n" << capr::to_string(n.in_shape) << " -> " << capr::to_string(n.out_shape)
       << "\"";
    if (role[static_cast<size_t>(n.id)] == 1) {
      os << ", style=filled, fillcolor=palegreen";
    } else if (role[static_cast<size_t>(n.id)] == 2) {
      os << ", style=filled, fillcolor=lightsalmon";
    }
    os << "];\n";
  }
  for (const Node& n : g.nodes()) {
    for (NodeId dst : n.outputs) os << "  n" << n.id << " -> n" << dst << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace capr::graph
