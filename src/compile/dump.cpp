#include "compile/dump.h"

#include <cstdio>
#include <sstream>

#include "graph/dump.h"

namespace capr::compile {
namespace {

void shape_json(std::ostringstream& os, const Shape& s) {
  os << '[';
  for (size_t i = 0; i < s.size(); ++i) {
    if (i != 0) os << ", ";
    os << s[i];
  }
  os << ']';
}

void ids_json(std::ostringstream& os, const std::vector<graph::NodeId>& ids) {
  os << '[';
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ", ";
    os << ids[i];
  }
  os << ']';
}

const char* epilogue_name(Epilogue e) {
  switch (e) {
    case Epilogue::kNone: return "none";
    case Epilogue::kReLU: return "relu";
    case Epilogue::kLeakyReLU: return "leakyrelu";
  }
  return "unknown";
}

std::string hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string to_json(const ExecutionPlan& plan, const graph::ModuleGraph& g,
                    const CompileOptions& opts, const std::string& arch) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"capr-exec-plan-v1\",\n";
  os << "  \"arch\": \"" << graph::json_escape(arch) << "\",\n";
  // Structural half only: weight bytes would make the golden depend on
  // the init RNG, which is seeded but float-format fragile.
  os << "  \"structural_hash\": \"" << hex64(hash_graph(g).structural) << "\",\n";
  os << "  \"options\": {\"fold_batchnorm\": " << (opts.fold_batchnorm ? "true" : "false")
     << "},\n";
  os << "  \"input_shape\": ";
  shape_json(os, plan.input_shape());
  os << ",\n  \"steps\": [\n";
  const auto& steps = plan.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    os << "    {\"op\": \"" << to_string(s.kind) << "\", \"nodes\": ";
    ids_json(os, s.nodes);
    os << ", \"in0\": " << s.in0;
    if (s.in1 >= 0) os << ", \"in1\": " << s.in1;
    os << ", \"out\": " << s.out << ", \"out_shape\": ";
    shape_json(os, s.out_shape);
    os << ", \"epilogue\": \"" << epilogue_name(s.act) << "\"";
    if (s.kind == StepKind::kConv) {
      os << ", \"folded_bn\": " << (s.folded_bn ? "true" : "false")
         << ", \"prepacked\": " << (s.prepacked ? "true" : "false")
         << ", \"lowering\": \"" << to_string(s.lowering) << "\""
         << ", \"prepacked_floats\": " << static_cast<int64_t>(s.packed_w.strips.size());
      // Packing provenance: the GEMM config the strips were laid out for.
      // Changes when the fixed config or its split threshold does, which
      // is exactly what the golden diff should surface.
      os << ", \"packed_mc\": " << s.packed_w.cfg.mc << ", \"packed_kc\": " << s.packed_w.cfg.kc
         << ", \"packed_mr\": " << s.packed_w.cfg.mr
         << ", \"packed_strategy\": \"" << to_string(s.packed_w.cfg.strategy) << "\"";
    } else if (s.kind == StepKind::kLinear) {
      os << ", \"prepacked\": " << (s.prepacked ? "true" : "false")
         << ", \"prepacked_floats\": " << static_cast<int64_t>(s.packed_in.panels.size());
    }
    os << "}" << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"summary\": {\"steps\": " << static_cast<int64_t>(steps.size())
     << ", \"slots\": " << plan.slot_count() << ", \"output_slot\": " << plan.output_slot()
     << ", \"interpreted_steps\": " << plan.interpreted_steps()
     << ", \"folded_batchnorms\": " << plan.folded_batchnorms()
     << ", \"fused_epilogues\": " << plan.fused_epilogues()
     << ", \"prepacked_floats\": " << plan.prepacked_floats()
     << ", \"scratch_floats\": " << plan.scratch_floats() << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace capr::compile
