// Kernel-level microbenchmarks (google-benchmark): the primitives that
// dominate experiment wall-clock, plus the cost gap between Taylor
// scoring (Eq. 4, one backward pass) and exact zero-out scoring (Eq. 3,
// one forward per activation) that motivates the paper's approximation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/importance.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

namespace {

using namespace capr;

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2Col(benchmark::State& state) {
  const int64_t size = state.range(0);
  ConvGeom g{16, size, size, 3, 3, 1, 1};
  Rng rng(2);
  Tensor image({16, size, size});
  rng.fill_normal(image, 0.0f, 1.0f);
  Tensor col({g.col_rows(), g.col_cols()});
  for (auto _ : state) {
    im2col(image.data(), g, col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() * col.numel());
}
BENCHMARK(BM_Im2Col)->Arg(8)->Arg(16)->Arg(32);

// The lowering a compiled plan and the tiled Conv2d forward run: straight
// into packed-B panels, finiteness predicate included. Args are (size,
// kernel, stride, padding): the BM_Im2Col shapes, then one 3x3 stride-2
// and one 1x1 stride-2 downsampling conv, which skip input elements and
// so fuse the check into the gather.
void BM_Im2ColPacked(benchmark::State& state) {
  const int64_t size = state.range(0);
  ConvGeom g{16, size, size, state.range(1), state.range(1), state.range(2), state.range(3)};
  Rng rng(2);
  Tensor image({16, size, size});
  rng.fill_normal(image, 0.0f, 1.0f);
  std::vector<float> panels(static_cast<size_t>(packed_b_floats(g.col_rows(), g.col_cols())));
  for (auto _ : state) {
    benchmark::DoNotOptimize(im2col_packed(image.data(), g, panels.data()));
    benchmark::DoNotOptimize(panels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.col_rows() * g.col_cols());
}
BENCHMARK(BM_Im2ColPacked)
    ->Args({8, 3, 1, 1})
    ->Args({16, 3, 1, 1})
    ->Args({32, 3, 1, 1})
    ->Args({32, 3, 2, 1})
    ->Args({16, 1, 2, 0});

// One image through one compiled conv step's kernels: lowering plus the
// pre-packed GEMM. Args are (channels, size, stride, out_channels,
// lowering): 3x3 pad-1 convs, lowering 1 = direct (fill_direct_planes +
// gemm_tiled_packed_direct), 0 = panels (im2col_packed +
// gemm_tiled_packed), so each direct row has its panel twin. The first
// pair is serve-compute's pruned node 3 (C=8, 32 px, M=4), the second a
// stride-2 downsampling conv. Wall clock.
void BM_ConvDirect(benchmark::State& state) {
  const int64_t channels = state.range(0);
  const int64_t size = state.range(1);
  const int64_t cout = state.range(3);
  const bool direct = state.range(4) != 0;
  const ConvGeom g{channels, size, size, 3, 3, state.range(2), 1};
  Rng rng(5);
  Tensor image({channels, size, size});
  rng.fill_normal(image, 0.0f, 1.0f);
  Tensor w({cout, g.col_rows()});
  rng.fill_normal(w, 0.0f, 0.1f);
  const PackedA a = pack_a_full(w.data(), cout, g.col_rows(),
                                resolve_gemm_config(GemmVariant::kNN, cout, g.col_rows(),
                                                    g.col_cols()));
  const DirectConv map = direct_conv_map(g);
  std::vector<float> operand(static_cast<size_t>(
      direct ? direct_plane_floats(g) : packed_b_floats(g.col_rows(), g.col_cols())));
  Tensor out({cout, g.col_cols()});
  for (auto _ : state) {
    if (direct) {
      benchmark::DoNotOptimize(fill_direct_planes(image.data(), g, operand.data()));
      gemm_tiled_packed_direct(a, operand.data(), map, out.data());
    } else {
      benchmark::DoNotOptimize(im2col_packed(image.data(), g, operand.data()));
      gemm_tiled_packed(a, operand.data(), out.data(), g.col_cols());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cout * g.col_rows() * g.col_cols());
}
BENCHMARK(BM_ConvDirect)
    ->Args({8, 32, 1, 4, 1})
    ->Args({8, 32, 1, 4, 0})
    ->Args({8, 32, 2, 16, 1})
    ->Args({8, 32, 2, 16, 0})
    ->UseRealTime();

void BM_ConvForward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false);
  Rng rng(3);
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, channels, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(32)->Arg(64);

void BM_ConvBackward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  nn::Conv2d conv(channels, channels, 3, 1, 1, false);
  Rng rng(4);
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({8, channels, 16, 16});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor g({8, channels, 16, 16});
  rng.fill_normal(g, 0.0f, 1.0f);
  conv.forward(x, true);
  for (auto _ : state) {
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(32)->Arg(64);

struct ScoringSetup {
  nn::Model model;
  data::SyntheticCifar data;
  ScoringSetup() {
    models::BuildConfig mcfg;
    mcfg.num_classes = 4;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.25f;
    model = models::make_tiny_cnn(mcfg);
    data::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 8;
    dcfg.test_per_class = 2;
    dcfg.image_size = 8;
    data = data::make_synthetic_cifar(dcfg);
  }
};

// The efficiency argument of Section III-B: Taylor needs one
// forward+backward per class batch; exact zero-out needs one forward per
// activation. Compare per-unit scoring cost on the same batch.
void BM_TaylorScoring(benchmark::State& state) {
  ScoringSetup s;
  Rng rng(5);
  const data::Batch batch = s.data.train.sample_class(0, 4, rng);
  core::ImportanceEvaluator eval;
  for (auto _ : state) {
    Tensor scores = eval.taylor_activation_scores(s.model, 0, batch);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_TaylorScoring);

void BM_ExactZeroOutScoring(benchmark::State& state) {
  ScoringSetup s;
  Rng rng(5);
  const data::Batch batch = s.data.train.sample_class(0, 4, rng);
  core::ImportanceEvaluator eval;
  for (auto _ : state) {
    Tensor scores = eval.exact_activation_scores(s.model, 0, batch);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_ExactZeroOutScoring);

void BM_FullImportanceEvaluation(benchmark::State& state) {
  ScoringSetup s;
  core::ImportanceEvaluator eval(core::ImportanceConfig{.images_per_class = 4});
  for (auto _ : state) {
    core::ImportanceResult res = eval.evaluate(s.model, s.data.train);
    benchmark::DoNotOptimize(res.units.data());
  }
}
BENCHMARK(BM_FullImportanceEvaluation);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so CI can exercise the binary:
// --smoke maps to a filter of the smallest shapes plus a tiny min-time,
// proving every registered benchmark family actually runs. All other
// flags pass straight through to google-benchmark.
int main(int argc, char** argv) {
  std::vector<char*> bargv(argv, argv + argc);
  const auto is_smoke = [](const char* s) { return std::string(s) == "--smoke"; };
  const bool smoke = std::any_of(bargv.begin(), bargv.end(), is_smoke);
  bargv.erase(std::remove_if(bargv.begin(), bargv.end(), is_smoke), bargv.end());
  std::string filter = "--benchmark_filter=(BM_Gemm/32|BM_Im2Col/8|BM_Im2ColPacked/8/|"
                       "BM_ConvDirect/8/32/1/4/1/|"
                       "BM_ConvForward/16|"
                       "BM_ConvBackward/16|BM_TaylorScoring|BM_ExactZeroOutScoring|"
                       "BM_FullImportanceEvaluation)";
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) {
    bargv.push_back(filter.data());
    bargv.push_back(min_time.data());
  }
  int bargc = static_cast<int>(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
