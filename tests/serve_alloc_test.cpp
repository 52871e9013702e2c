// Zero-allocation regression tests for the compiled serving hot path.
//
// tensor/alloc_stats.h counts every float-buffer allocation event
// (Tensor construction, capacity-growing Tensor::reset, ScratchArena
// growth). The contract: after ExecutionPlan::warm() every buffer the
// steady state needs exists, so repeated run_ref calls allocate NOTHING,
// and a running InferenceServer allocates exactly one float buffer per
// request (the per-request logits handed to the client) — any other
// growth is a regression in plan scratch pre-sizing or worker scratch
// reuse.
#include "tensor/alloc_stats.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "compile/compiler.h"
#include "compile/plan.h"
#include "graph/graph.h"
#include "models/builders.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace capr::serve {
namespace {

models::BuildConfig small_cfg() {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  cfg.width_mult = 0.5f;
  return cfg;
}

Tensor random_batch(const Shape& in, int64_t n, uint64_t seed) {
  Tensor x({n, in[0], in[1], in[2]});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

Tensor random_sample(const Shape& in, uint64_t seed) {
  Tensor x({in[0], in[1], in[2]});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

// Direct compiled path: warm once, then steady-state run_ref performs
// zero float allocations under either GEMM kernel, at max batch and at
// smaller batches (shrinking never reallocates).
TEST(ServeAllocTest, CompiledRunRefIsAllocationFreeAfterWarm) {
  for (GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    GemmKernelScope scope(kernel);
    SessionOptions opts;
    opts.mode = SessionOptions::Mode::kCompiled;
    const InferenceSession session(models::make_model("resnet20", small_cfg()), opts);
    ASSERT_NE(session.plan(), nullptr);

    constexpr int64_t kMaxBatch = 4;
    nn::InferScratch scratch;
    session.warm(scratch, kMaxBatch);

    // Every tensor the measured region touches is created up front.
    const Tensor full = random_batch(session.input_shape(), kMaxBatch, 11);
    const Tensor single = random_batch(session.input_shape(), 1, 12);
    session.run_ref(full, scratch);    // settle any first-touch growth
    session.run_ref(single, scratch);

    const uint64_t before = float_alloc_count();
    for (int i = 0; i < 16; ++i) {
      session.run_ref(full, scratch);
      session.run_ref(single, scratch);
    }
    const uint64_t after = float_alloc_count();
    EXPECT_EQ(after, before) << "kernel=" << (kernel == GemmKernel::kTiled ? "tiled" : "reference")
                             << ": compiled steady state allocated " << (after - before)
                             << " float buffer(s)";
  }
}

// Same zero-alloc contract where a GEMM threads. At batch 1 a conv step's
// image runs outside any parallel region, so a conv of at least 2^23
// FLOPs splits its pre-packed row blocks across workers. vgg11 (width
// 1.0) at 16 px has one: its 128-channel conv is M=128, K=576, N=64,
// 2*M*K*N ~ 9.4M, in two row blocks of MC=72. warm() at batch 4 runs
// those GEMMs serially inside per-image workers; the split reads only
// the plan's strips and the worker's B operand, so no per-worker scratch
// appears later either.
TEST(ServeAllocTest, CompiledRunRefIsAllocationFreeThroughSplitMGemm) {
  GemmKernelScope kernel(GemmKernel::kTiled);
  set_num_threads(4);
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 16;
  cfg.width_mult = 1.0f;
  const nn::Model model = models::make_model("vgg11", cfg);
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  ASSERT_TRUE(g.ok());
  const compile::CompileResult result = compile::compile(g);
  ASSERT_NE(result.plan, nullptr);
  const compile::ExecutionPlan& plan = *result.plan;

  bool splits = false;
  for (const compile::Step& s : plan.steps()) {
    if (s.kind != compile::StepKind::kConv) continue;
    const PackedA& w = s.packed_w;
    splits = splits || (w.cfg.strategy == GemmParallel::kSplitM && w.rows > w.cfg.mc);
  }
  ASSERT_TRUE(splits) << "no conv step splits its rows: the test reaches no parallel GEMM";

  constexpr int kMaxBatch = 4;
  const Shape in = {cfg.input_channels, cfg.input_size, cfg.input_size};
  const Tensor full = random_batch(in, kMaxBatch, 15);
  const Tensor single = random_batch(in, 1, 16);
  nn::InferScratch scratch;
  plan.warm(scratch, kMaxBatch);
  const int64_t resident = scratch.arena.resident_floats();

  const uint64_t before = float_alloc_count();
  for (int i = 0; i < 16; ++i) {
    plan.run_ref(single, scratch);
    plan.run_ref(full, scratch);
  }
  EXPECT_EQ(float_alloc_count(), before) << "steady state allocated through a split-M GEMM";
  EXPECT_EQ(scratch.arena.resident_floats(), resident) << "arena grew after warm()";
  set_num_threads(0);
}

// The direct conv path (padded planes read through an offset map) keeps
// the contract: resnet20 at 16 px lowers every conv directly (16x16,
// 8x8 and 4x4 outputs), and after warm() at batch 8 with 2 threads a run
// at batch 1 or 8 allocates nothing. Each worker holds one plane buffer,
// in arena slot 0 under the plan's declared pre-size.
TEST(ServeAllocTest, DirectConvPlanIsAllocationFreeAfterWarm) {
  GemmKernelScope kernel(GemmKernel::kTiled);
  set_num_threads(2);
  models::BuildConfig cfg = small_cfg();
  cfg.input_size = 16;
  const nn::Model model = models::make_model("resnet20", cfg);
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  ASSERT_TRUE(g.ok());
  const compile::CompileResult result = compile::compile(g);
  ASSERT_NE(result.plan, nullptr);
  const compile::ExecutionPlan& plan = *result.plan;
  int convs = 0;
  for (const compile::Step& s : plan.steps()) {
    if (s.kind != compile::StepKind::kConv) continue;
    ++convs;
    EXPECT_EQ(s.lowering, compile::ConvLowering::kDirect) << "node " << s.nodes.front();
  }
  ASSERT_GT(convs, 0);

  constexpr int64_t kMaxBatch = 8;
  const Shape in = {cfg.input_channels, cfg.input_size, cfg.input_size};
  const Tensor full = random_batch(in, kMaxBatch, 17);
  const Tensor single = random_batch(in, 1, 18);
  nn::InferScratch scratch;
  plan.warm(scratch, kMaxBatch);
  const int64_t resident = scratch.arena.resident_floats();
  EXPECT_LE(resident, 2 * plan.scratch_floats()) << "more than one plane buffer per worker";

  const uint64_t before = float_alloc_count();
  for (int i = 0; i < 16; ++i) {
    plan.run_ref(single, scratch);
    plan.run_ref(full, scratch);
  }
  EXPECT_EQ(float_alloc_count(), before) << "direct-conv steady state allocated";
  EXPECT_EQ(scratch.arena.resident_floats(), resident) << "arena grew after warm()";
  set_num_threads(0);
}

// Contrast: the interpreted path constructs fresh intermediate tensors
// on every layer call, so it allocates on every run even when warm.
// This is the overhead the compiled plan's pre-sized slots eliminate —
// if this test starts seeing ZERO interpreted allocations, the counter
// hooks are broken and the compiled zero-alloc test above proves nothing.
TEST(ServeAllocTest, InterpretedRunRefStillAllocatesPerCall) {
  GemmKernelScope scope(GemmKernel::kTiled);
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kInterpreted;
  const InferenceSession session(models::make_model("tiny", small_cfg()), opts);
  nn::InferScratch scratch;
  const Tensor batch = random_batch(session.input_shape(), 4, 21);
  session.run_ref(batch, scratch);
  session.run_ref(batch, scratch);

  const uint64_t before = float_alloc_count();
  constexpr int kRuns = 16;
  for (int i = 0; i < kRuns; ++i) session.run_ref(batch, scratch);
  EXPECT_GE(float_alloc_count() - before, static_cast<uint64_t>(kRuns))
      << "interpreted forward stopped allocating — alloc-count hooks look dead";
}

// Server steady state: with a warmed single worker, each request costs
// exactly ONE float allocation — the [num_classes] logits tensor handed
// back through the future. max_batch=1 keeps the stacked input at fixed
// capacity so the count is exact rather than an upper bound.
TEST(ServeAllocTest, ServerSteadyStateAllocatesOncePerRequest) {
  GemmKernelScope scope(GemmKernel::kTiled);
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kCompiled;
  auto session = std::make_shared<const InferenceSession>(
      models::make_model("tiny", small_cfg()), opts);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 64;
  InferenceServer server(session, cfg);

  // Warmup: the worker builds its scratch, warms the plan, and grows the
  // persistent stacked-input tensor on the first request.
  for (int i = 0; i < 4; ++i) {
    auto fut = server.submit(random_sample(session->input_shape(), 30 + i));
    ASSERT_EQ(fut.get().status, RequestStatus::kOk);
  }

  constexpr int kRequests = 12;
  std::vector<Tensor> samples;
  samples.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    samples.push_back(random_sample(session->input_shape(), 100 + i));

  const uint64_t before = float_alloc_count();
  std::vector<std::future<InferResult>> futures;
  futures.reserve(kRequests);
  for (Tensor& s : samples) futures.push_back(server.submit(std::move(s)));
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  const uint64_t after = float_alloc_count();

  EXPECT_EQ(after - before, static_cast<uint64_t>(kRequests))
      << "expected exactly one float allocation (the per-request logits) per request";
  server.shutdown();
}

}  // namespace
}  // namespace capr::serve
