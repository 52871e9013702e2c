#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("perfbench: non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": {\"value\": " + json_number(items_[i].second.first) +
           ", \"unit\": " + json_string(items_[i].second.second) + "}";
  }
  return out + "}";
}

int64_t Trace::begin(const std::string& name) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  Span s;
  s.name = name;
  s.start_s = std::chrono::duration<double>(now - t0_).count();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  open_start_.push_back(now);
  return open_.back();
}

void Trace::end(int64_t id) {
  if (!enabled_ || id < 0) return;
  const Clock::time_point now = Clock::now();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  const double dur = std::chrono::duration<double>(now - open_start_.back()).count();
  spans_[static_cast<size_t>(id)].dur_s = dur;
  open_.pop_back();
  open_start_.pop_back();
}

void Trace::write(const std::string& path, const std::string& info_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write trace file " + path);
  out << "{\"info\": " << info_json << ",\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start_s) << ", \"dur_s\": " << json_number(s.dur_s)
        << ", \"parent\": " << s.parent << "}";
  }
  out << "],\n\"rows\": [";
  for (size_t i = 0; i < rows_.size(); ++i) out << (i ? ",\n" : "\n") << rows_[i];
  out << "]}\n";
}

}  // namespace perfbench
