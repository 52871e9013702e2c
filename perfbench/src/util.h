// Small shared pieces of the benchmark program: clocks, order statistics,
// the named-metric record it prints, and the span recorder of the traced
// run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t);
double us_between(Clock::time_point a, Clock::time_point b);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...} with every digit kept.
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Formats a double with round-trip precision (finite values only).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Spans of the traced run, kept in memory and written out at the end.
/// A span names the layer call it timed; `parent` is the index of the
/// enclosing span or -1.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double dur_s = 0.0;
    int64_t parent = -1;
  };

  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Opens a span and returns its index (-1 when tracing is off).
  int64_t begin(const std::string& name);
  /// Closes span `id` (no-op when off).
  void end(int64_t id);

  /// Extra per-node rows for the trace file (already JSON objects).
  void add_row(std::string json_object) { rows_.push_back(std::move(json_object)); }
  /// Writes {"spans": [...], "rows": [...], "info": info} to `path`.
  void write(const std::string& path, const std::string& info_json) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  std::vector<Clock::time_point> open_start_;
  std::vector<std::string> rows_;
};

}  // namespace perfbench
