// GEMM throughput: tiled vs reference kernel across shapes and thread
// counts. Emits BENCH_kernels.json (schema capr-kernel-bench-v1) for the
// CI perf-diff step; the committed copy at the repo root is the baseline.
//
//   bench_gemm                 full sweep, writes BENCH_kernels.json
//   bench_gemm --smoke         smallest shape only, tiny min-time (CI)
//   bench_gemm --out FILE      alternate output path
#include <cstdint>
#include <string>
#include <vector>

#include "kernel_bench.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace {

using namespace capr;
using benchx::BenchSpec;

struct Shape3 {
  int64_t m, k, n;
};

// Square sizes bracketing cache levels, the dominant conv-lowered shapes
// (wide-N panel from im2col, tall-K from late VGG layers), then six
// skinny im2col shapes of filter-pruned builder models, smallest M
// first: the worst strip padding under MR=6.
const Shape3 kShapes[] = {
    {64, 64, 64},   {128, 128, 128}, {256, 256, 256}, {384, 384, 384},
    {96, 576, 256}, {16, 144, 1024}, {3, 36, 256},    {12, 72, 16},
    {24, 108, 64},  {96, 432, 4},    {6, 36, 64},     {6, 72, 64},
};

void run_gemm(benchmark::State& state, const BenchSpec spec) {
  set_num_threads(spec.threads);
  const GemmKernelScope scope(spec.kernel == "reference" ? GemmKernel::kReference
                                                         : GemmKernel::kTiled);
  Rng rng(1234);
  Tensor a({spec.m, spec.k}), b({spec.k, spec.n}), c({spec.m, spec.n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  GemmScratch scratch;
  for (auto _ : state) {
    gemm_auto(a.data(), b.data(), c.data(), spec.m, spec.k, spec.n, /*accumulate=*/false,
              &scratch);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      spec.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  set_num_threads(0);  // restore default
}

std::vector<BenchSpec> register_all() {
  std::vector<BenchSpec> specs;
  for (const Shape3& s : kShapes) {
    for (const std::string kernel : {"reference", "tiled"}) {
      // The reference kernel is serial; only the tiled paths thread.
      const std::vector<int> thread_counts =
          kernel == "reference" ? std::vector<int>{1} : std::vector<int>{1, 4};
      for (int threads : thread_counts) {
        BenchSpec spec;
        spec.kernel = kernel;
        spec.threads = threads;
        spec.m = s.m;
        spec.k = s.k;
        spec.n = s.n;
        spec.flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                     static_cast<double>(s.n);
        spec.name = "gemm/" + spec.kernel + "/t" + std::to_string(threads) + "/" +
                    std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                    std::to_string(s.n);
        benchmark::RegisterBenchmark(spec.name.c_str(), run_gemm, spec);
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::KernelBenchArgs args;
  const std::vector<BenchSpec> specs = register_all();
  if (!benchx::init_benchmark(argc, argv, "gemm/(reference|tiled)/t1/64x64x64", args)) {
    return 1;
  }
  benchx::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = args.out.empty() ? "BENCH_kernels.json" : args.out;
  return benchx::write_kernel_json(path, "bench_gemm", specs, reporter.rows) ? 0 : 1;
}
