// Minimal JSON document builder for machine-readable experiment results.
//
// Deliberately tiny: enough to serialise the library's result structs
// (numbers, strings, booleans, arrays, objects) with correct escaping.
// No parsing — results flow out of the library, not in.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hw/systolic.h"

namespace capr::report {

/// A JSON value. Build with the static constructors, compose with
/// push_back (arrays) and set (objects), then dump().
class JsonValue {
 public:
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue number(int64_t v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  /// Appends to an array; throws std::logic_error on other kinds.
  void push_back(JsonValue v);

  /// Sets a key on an object; throws std::logic_error on other kinds.
  void set(const std::string& key, JsonValue v);

  /// Compact serialisation (no whitespace). Integral numbers print
  /// without a decimal point.
  std::string dump() const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInt, kString, kArray, kObject };
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s);

/// Serialiser for the systolic-array simulation result.
JsonValue to_json(const hw::ModelSim& sim);

}  // namespace capr::report
