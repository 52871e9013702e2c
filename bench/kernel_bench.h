// Shared glue for the kernel benchmark binaries (bench_gemm, bench_conv):
// a google-benchmark reporter that captures per-benchmark GFLOP/s while
// still printing the normal console table, and a JSON writer emitting the
// BENCH_kernels.json schema consumed by tools/perf_diff.py and the CI
// perf-regression step.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "report/json.h"

namespace capr::benchx {

/// Registration-time metadata for one benchmark; `name` must match the
/// registered benchmark name exactly (it keys the merge with timings).
struct BenchSpec {
  std::string name;    // e.g. "gemm/tiled/t1/256x256x256"
  std::string kernel;  // "reference" | "tiled"
  int threads = 1;
  int64_t m = 0, k = 0, n = 0;
  double flops = 0.0;  // per iteration
};

/// Captured timing for one benchmark run.
struct CaptureRow {
  std::string name;
  double gflops = 0.0;
  double real_time_s = 0.0;
  int64_t iterations = 0;
};

/// Console output plus capture. Benchmarks must set a rate counter named
/// "FLOPS" (finalised to FLOP/s by google-benchmark before reporting).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<CaptureRow> rows;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      CaptureRow row;
      row.name = run.benchmark_name();
      row.real_time_s = run.GetAdjustedRealTime() * 1e-9;  // reported in ns
      row.iterations = run.iterations;
      const auto it = run.counters.find("FLOPS");
      if (it != run.counters.end()) row.gflops = it->second.value / 1e9;
      rows.push_back(row);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

/// Merges specs with captured rows and writes the result file. Specs
/// that never ran (filtered out, e.g. under --smoke) are omitted.
inline bool write_kernel_json(const std::string& path, const std::string& binary,
                              const std::vector<BenchSpec>& specs,
                              const std::vector<CaptureRow>& rows) {
  report::JsonValue results = report::JsonValue::array();
  for (const BenchSpec& spec : specs) {
    for (const CaptureRow& row : rows) {
      if (row.name != spec.name) continue;
      report::JsonValue r = report::JsonValue::object();
      r.set("name", report::JsonValue::string(spec.name));
      r.set("kernel", report::JsonValue::string(spec.kernel));
      r.set("threads", report::JsonValue::number(static_cast<int64_t>(spec.threads)));
      r.set("m", report::JsonValue::number(spec.m));
      r.set("k", report::JsonValue::number(spec.k));
      r.set("n", report::JsonValue::number(spec.n));
      r.set("gflops", report::JsonValue::number(row.gflops));
      r.set("real_time_s", report::JsonValue::number(row.real_time_s));
      r.set("iterations", report::JsonValue::number(row.iterations));
      results.push_back(std::move(r));
      break;
    }
  }
  report::JsonValue doc = report::JsonValue::object();
  doc.set("schema", report::JsonValue::string("capr-kernel-bench-v1"));
  doc.set("binary", report::JsonValue::string(binary));
  doc.set("results", std::move(results));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << doc.dump() << "\n";
  std::cout << "wrote " << path << "\n";
  return true;
}

/// Strips --smoke / --out FILE (shared bench flags) and
/// forwards the rest to benchmark::Initialize. Returns false on
/// unrecognised flags.
struct KernelBenchArgs {
  bool smoke = false;
  std::string out;
};

inline bool init_benchmark(int argc, char** argv, const std::string& smoke_filter,
                           KernelBenchArgs& args) {
  std::vector<char*> bargv;
  bargv.reserve(static_cast<size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      bargv.push_back(argv[i]);
    }
  }
  static std::string filter_flag, min_time_flag;  // outlive Initialize
  if (args.smoke) {
    filter_flag = "--benchmark_filter=" + smoke_filter;
    min_time_flag = "--benchmark_min_time=0.01";
    bargv.push_back(filter_flag.data());
    bargv.push_back(min_time_flag.data());
  }
  int bargc = static_cast<int>(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());
  return !benchmark::ReportUnrecognizedArguments(bargc, bargv.data());
}

}  // namespace capr::benchx
