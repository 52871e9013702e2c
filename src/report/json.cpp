#include "report/json.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace capr::report {

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::number(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw std::logic_error("JsonValue: push_back on non-array");
  arr_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject) throw std::logic_error("JsonValue: set on non-object");
  obj_.emplace_back(key, std::move(v));
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonValue::dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kNumber: {
      if (!std::isfinite(num_)) return "null";  // JSON has no inf/nan
      std::ostringstream os;
      os.precision(10);
      os << num_;
      return os.str();
    }
    case Kind::kString:
      return std::string("\"").append(json_escape(str_)).append("\"");
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        out += arr_[i].dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        out.append("\"").append(json_escape(obj_[i].first)).append("\":");
        out += obj_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

JsonValue to_json(const hw::ModelSim& sim) {
  JsonValue v = JsonValue::object();
  v.set("total_cycles", JsonValue::number(sim.total_cycles));
  v.set("total_macs", JsonValue::number(sim.total_macs));
  v.set("total_dram_bytes", JsonValue::number(sim.total_dram_bytes));
  v.set("total_energy_nj", JsonValue::number(sim.total_energy_nj));
  JsonValue layers = JsonValue::array();
  for (const hw::LayerSim& l : sim.layers) {
    JsonValue lj = JsonValue::object();
    lj.set("name", JsonValue::string(l.name));
    lj.set("kind", JsonValue::string(l.kind));
    lj.set("cycles", JsonValue::number(l.cycles));
    lj.set("macs", JsonValue::number(l.macs));
    lj.set("utilization", JsonValue::number(l.utilization));
    layers.push_back(std::move(lj));
  }
  v.set("layers", std::move(layers));
  return v;
}

}  // namespace capr::report
