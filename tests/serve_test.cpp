// Serving runtime contract tests.
//
// The load-bearing guarantee: InferenceSession::run (and the
// InferenceServer on top of it) produces BITWISE-identical logits to the
// training-side Model::forward(x, false), regardless of GEMM kernel,
// micro-batch composition, worker count, or how many client threads
// share one session. Plus the scheduler semantics: deadline rejection,
// bounded-queue backpressure, graceful shutdown draining accepted work.
// serve_test and serve_queue_test both run under the TSan CI lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/surgeon.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/gemm_tiled.h"
#include "tensor/parallel.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace capr {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool row_equals(const Tensor& logits, int64_t row, const Tensor& single) {
  const int64_t classes = logits.dim(1);
  return single.numel() == classes &&
         std::memcmp(logits.data() + row * classes, single.data(),
                     static_cast<size_t>(classes) * sizeof(float)) == 0;
}

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

Tensor sample_of(const Tensor& batch, int64_t i) {
  const int64_t per = batch.numel() / batch.dim(0);
  Tensor s({batch.dim(1), batch.dim(2), batch.dim(3)});
  std::memcpy(s.data(), batch.data() + i * per, static_cast<size_t>(per) * sizeof(float));
  return s;
}

TEST(InferencePathTest, MatchesTrainingForwardBitwise) {
  for (const char* arch : {"tiny", "vgg11", "resnet20"}) {
    for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
      const GemmKernelScope scope(kernel);
      nn::Model model = models::make_model(arch, small_cfg());
      const Tensor x = random_batch(model.input_shape, 3, 11);
      const Tensor want = model.forward(x, /*training=*/false);
      nn::InferScratch scratch;
      const Tensor got = model.forward_inference(x, scratch);
      EXPECT_TRUE(bitwise_equal(got, want)) << arch << " kernel " << static_cast<int>(kernel);
    }
  }
}

TEST(InferencePathTest, AppliesChannelScaleInterventions) {
  // Read-only interventions (hw emulation) must act on the inference
  // path exactly as on the training path.
  nn::Model model = models::make_model("tiny", small_cfg());
  const Tensor x = random_batch(model.input_shape, 2, 12);
  ASSERT_FALSE(model.units.empty());
  nn::Layer* point = model.units[0].score_point;
  ASSERT_NE(point, nullptr);
  point->instrument().channel_scale.assign(
      static_cast<size_t>(model.units[0].conv->out_channels()), 0.5f);
  const Tensor want = model.forward(x, false);
  nn::InferScratch scratch;
  const Tensor got = model.forward_inference(x, scratch);
  point->instrument().channel_scale.clear();
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST(InferencePathTest, BatchCompositionInvariance) {
  // A sample's logits must not depend on which other samples share its
  // micro-batch — the property that makes adaptive batching bitwise-safe.
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    serve::InferenceSession session(models::make_model("resnet20", small_cfg()));
    const Tensor batch = random_batch(session.input_shape(), 6, 13);
    nn::InferScratch scratch;
    const Tensor together = session.run(batch, scratch);
    ASSERT_EQ(together.dim(0), 6);
    for (int64_t i = 0; i < 6; ++i) {
      Tensor one({1, batch.dim(1), batch.dim(2), batch.dim(3)});
      std::memcpy(one.data(), batch.data() + i * one.numel(),
                  static_cast<size_t>(one.numel()) * sizeof(float));
      const Tensor alone = session.run(one, scratch);
      EXPECT_TRUE(row_equals(together, i, alone.reshape({together.dim(1)})))
          << "sample " << i << " kernel " << static_cast<int>(kernel);
    }
  }
}

TEST(InferenceSessionTest, RejectsNonBatchInput) {
  serve::InferenceSession session(models::make_model("tiny", small_cfg()));
  const Shape& in = session.input_shape();
  nn::InferScratch scratch;
  EXPECT_THROW(session.run(Tensor({in[0], in[1], in[2]}), scratch), std::invalid_argument);
}

TEST(InferenceSessionTest, FromCheckpointRejectsWrongArch) {
  nn::Model vgg = models::make_model("vgg11", small_cfg());
  const std::string path = ::testing::TempDir() + "capr_serve_wrongarch.ckpt";
  save_tensor_map(path, vgg.state_dict());
  // resnet20's conv names are absent from a vgg11 checkpoint.
  EXPECT_THROW(serve::InferenceSession::from_checkpoint("resnet20", small_cfg(), path),
               std::runtime_error);
}

// Train a small model, prune it, save the checkpoint, serve it from a
// fresh process-like reload: logits must match the live pruned model
// bit for bit, across kernels and server worker counts.
TEST(ServeEquivalenceTest, TrainPruneSaveServeRoundTrip) {
  models::BuildConfig mcfg = small_cfg();
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.train_per_class = 16;
  dcfg.test_per_class = 4;
  dcfg.image_size = 8;
  const data::SyntheticCifar data = data::make_synthetic_cifar(dcfg);

  nn::Model model = models::make_model("tiny", mcfg);
  nn::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 16;
  tcfg.sgd.lr = 0.05f;
  nn::train(model, data.train, tcfg, nullptr);

  // Prune a couple of filters from the first unit, then checkpoint.
  ASSERT_FALSE(model.units.empty());
  ASSERT_GE(model.units[0].conv->out_channels(), 4);
  core::remove_filters(model, 0, {0, 2});
  const std::string path = ::testing::TempDir() + "capr_serve_pruned.ckpt";
  save_tensor_map(path, model.state_dict());

  const Tensor x = random_batch(model.input_shape, 5, 17);
  for (const GemmKernel kernel : {GemmKernel::kReference, GemmKernel::kTiled}) {
    const GemmKernelScope scope(kernel);
    const Tensor want = model.forward(x, false);

    auto session = std::make_shared<const serve::InferenceSession>(
        serve::InferenceSession::from_checkpoint("tiny", mcfg, path));
    nn::InferScratch scratch;
    EXPECT_TRUE(bitwise_equal(session->run(x, scratch), want));

    for (const int workers : {1, 4}) {
      serve::ServerConfig scfg;
      scfg.workers = workers;
      scfg.max_batch = 4;
      serve::InferenceServer server(session, scfg);
      std::vector<std::future<serve::InferResult>> futs;
      for (int64_t i = 0; i < x.dim(0); ++i) futs.push_back(server.submit(sample_of(x, i)));
      for (int64_t i = 0; i < x.dim(0); ++i) {
        serve::InferResult res = futs[static_cast<size_t>(i)].get();
        ASSERT_EQ(res.status, serve::RequestStatus::kOk) << res.error;
        EXPECT_TRUE(row_equals(want, i, res.output))
            << "row " << i << " workers " << workers << " kernel " << static_cast<int>(kernel);
      }
    }
  }
}

// The headline concurrency guarantee: one shared session, >= 4 client
// threads, outputs bitwise-identical to the single-threaded training
// path. Runs under TSan in CI.
TEST(ServeConcurrencyTest, SharedSessionFourClientsBitwise) {
  const models::BuildConfig cfg = small_cfg();
  nn::Model reference = models::make_model("resnet20", cfg);
  // Same builder + seed -> identical weights in the served copy.
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("resnet20", cfg)));

  constexpr int kClients = 4;
  constexpr int64_t kPerClient = 8;
  const Tensor x = random_batch(reference.input_shape, kClients * kPerClient, 23);
  const Tensor want = reference.forward(x, false);

  // Direct session sharing: each thread brings its own scratch.
  {
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        nn::InferScratch scratch;
        for (int64_t i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
          Tensor one({1, x.dim(1), x.dim(2), x.dim(3)});
          std::memcpy(one.data(), x.data() + i * one.numel(),
                      static_cast<size_t>(one.numel()) * sizeof(float));
          const Tensor got = session->run(one, scratch);
          if (!row_equals(want, i, got.reshape({want.dim(1)}))) {
            ++mismatches[static_cast<size_t>(c)];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0);
  }

  // Through the server: 4 concurrent submitting clients, micro-batching on.
  {
    serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 8;
    serve::InferenceServer server(session, scfg);
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<serve::InferResult>> futs;
        for (int64_t i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
          futs.push_back(server.submit(sample_of(x, i)));
        }
        for (int64_t i = 0; i < kPerClient; ++i) {
          serve::InferResult res = futs[static_cast<size_t>(i)].get();
          if (res.status != serve::RequestStatus::kOk ||
              !row_equals(want, c * kPerClient + i, res.output)) {
            ++mismatches[static_cast<size_t>(c)];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0);
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
    EXPECT_EQ(stats.errored, 0u);
  }
}

// Same 4-client shape, but sweeping every session mode explicitly:
// interpreted and compiled (exact passes only) are bitwise against the
// training forward; the BN-folded plan is eps-bounded. Runs under TSan
// in CI — the shared ExecutionPlan must be safely concurrent.
TEST(ServeConcurrencyTest, FourClientsAcrossAllSessionModes) {
  const models::BuildConfig cfg = small_cfg();
  nn::Model reference = models::make_model("resnet20", cfg);
  constexpr int kClients = 4;
  constexpr int64_t kPerClient = 4;
  const Tensor x = random_batch(reference.input_shape, kClients * kPerClient, 29);
  const Tensor want = reference.forward(x, false);

  for (const serve::SessionOptions::Mode mode :
       {serve::SessionOptions::Mode::kInterpreted, serve::SessionOptions::Mode::kCompiled,
        serve::SessionOptions::Mode::kCompiledFolded}) {
    serve::SessionOptions opts;
    opts.mode = mode;
    auto session = std::make_shared<const serve::InferenceSession>(
        serve::InferenceSession(models::make_model("resnet20", cfg), opts));
    const bool exact = mode != serve::SessionOptions::Mode::kCompiledFolded;

    serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 8;
    serve::InferenceServer server(session, scfg);
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<serve::InferResult>> futs;
        for (int64_t i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
          futs.push_back(server.submit(sample_of(x, i)));
        }
        for (int64_t i = 0; i < kPerClient; ++i) {
          serve::InferResult res = futs[static_cast<size_t>(i)].get();
          if (res.status != serve::RequestStatus::kOk) {
            ++mismatches[static_cast<size_t>(c)];
            continue;
          }
          const int64_t row = c * kPerClient + i;
          if (exact) {
            if (!row_equals(want, row, res.output)) ++mismatches[static_cast<size_t>(c)];
          } else {
            for (int64_t k = 0; k < want.dim(1); ++k) {
              const float a = want[row * want.dim(1) + k];
              const float b = res.output[k];
              if (std::fabs(b - a) > 1e-3f + 2e-3f * std::fabs(a)) {
                ++mismatches[static_cast<size_t>(c)];
                break;
              }
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0)
          << "client " << c << " mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(server.stats().errored, 0u);
  }
}

TEST(InferenceServerTest, ExpiredDeadlineIsRejectedWithTimeout) {
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  serve::InferenceServer server(session, serve::ServerConfig{});
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});
  // A deadline already in the past: deterministically rejected when a
  // worker picks the request up, no matter how fast the machine is.
  auto fut = server.submit(sample, serve::InferenceServer::Clock::now() -
                                       std::chrono::milliseconds(1));
  const serve::InferResult res = fut.get();
  EXPECT_EQ(res.status, serve::RequestStatus::kTimeout);
  EXPECT_TRUE(res.output.empty());
  EXPECT_GE(server.stats().timed_out, 1u);
}

TEST(InferenceServerTest, BackpressureRejectsFloodAndServesAccepted) {
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.max_batch = 1;
  serve::InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});

  // Submission is microseconds, inference is milliseconds: flooding a
  // capacity-4 queue MUST shed load.
  std::vector<std::future<serve::InferResult>> accepted;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    auto fut = server.try_submit(sample);
    if (fut.has_value()) {
      accepted.push_back(std::move(*fut));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_FALSE(accepted.empty());
  for (auto& fut : accepted) {
    EXPECT_EQ(fut.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().rejected, static_cast<uint64_t>(rejected));
}

TEST(InferenceServerTest, ShutdownDrainsAcceptedWork) {
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  serve::InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});

  std::vector<std::future<serve::InferResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(sample));
  server.shutdown();
  // Everything accepted before shutdown completes; nothing is dropped.
  for (auto& fut : futs) EXPECT_EQ(fut.get().status, serve::RequestStatus::kOk);
  EXPECT_EQ(server.stats().completed, 8u);

  // And the server refuses new work from then on.
  EXPECT_EQ(server.submit(sample).get().status, serve::RequestStatus::kShutdown);
  auto late = server.try_submit(sample);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->get().status, serve::RequestStatus::kShutdown);
}

// Worker counts that take each idle path of the server on the host that
// runs the test: a count below the core count polls before parking, one
// at or above it parks at once (idle_poll_window). On a host with at most
// 2 cores both counts park.
std::vector<int> polling_and_parking_worker_counts() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return {2, std::max(2, cores)};
}

TEST(InferenceServerTest, IdlePollWindowNeedsASpareCore) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(serve::idle_poll_window(std::max(cores, 1)), std::chrono::nanoseconds{0});
  if (cores > 1) {
    EXPECT_EQ(serve::idle_poll_window(cores - 1), serve::kIdlePollWindow);
  }
}

TEST(InferenceServerTest, IdleWorkerSkipsTheLinger) {
  // Work-conserving batching: while another worker is idle, a worker
  // holding a partial batch runs it at once instead of lingering.
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  const Shape& in = session->input_shape();
  const Tensor sample({in[0], in[1], in[2]});
  for (const int workers : polling_and_parking_worker_counts()) {
    serve::ServerConfig cfg;
    cfg.workers = workers;
    cfg.max_delay_us = 2'000'000;
    serve::InferenceServer server(session, cfg);
    const auto start = serve::InferenceServer::Clock::now();
    const serve::InferResult res = server.submit(sample).get();
    const auto waited = serve::InferenceServer::Clock::now() - start;
    EXPECT_EQ(res.status, serve::RequestStatus::kOk) << workers << " workers";
    EXPECT_LT(res.latency_us, 1'000'000) << workers << " workers";
    EXPECT_LT(waited, std::chrono::seconds(1)) << workers << " workers";
  }
}

TEST(InferenceServerTest, LoneWorkerStillLingers) {
  // With no other worker idle the linger is honoured: a lone request
  // waits the full max_delay_us for stragglers before it runs.
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_delay_us = 50'000;
  serve::InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  const serve::InferResult res = server.submit(Tensor({in[0], in[1], in[2]})).get();
  EXPECT_EQ(res.status, serve::RequestStatus::kOk);
  EXPECT_GE(res.latency_us, 50'000);
}

TEST(InferenceServerTest, ShutdownWithIdleWorkersIsPromptAndResolvesAll) {
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  const Shape& in = session->input_shape();
  const Tensor sample({in[0], in[1], in[2]});
  for (const int workers : polling_and_parking_worker_counts()) {
    serve::ServerConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 32;
    serve::InferenceServer server(session, cfg);
    std::vector<std::future<serve::InferResult>> futs;
    for (int i = 0; i < 16; ++i) futs.push_back(server.submit(sample));
    futs.front().wait();
    // Let the workers run dry, so they are idle (polling or parked) when
    // the shutdown arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto start = serve::InferenceServer::Clock::now();
    server.shutdown();
    EXPECT_LT(serve::InferenceServer::Clock::now() - start, std::chrono::seconds(1))
        << workers << " workers";
    for (auto& fut : futs) {
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      EXPECT_EQ(fut.get().status, serve::RequestStatus::kOk);
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.completed, 16u);
  }
}

TEST(InferenceServerTest, RejectsWrongSampleShape) {
  auto session = std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(models::make_model("tiny", small_cfg())));
  serve::InferenceServer server(session, serve::ServerConfig{});
  EXPECT_THROW(server.submit(Tensor({1, 2, 3})), std::invalid_argument);
  EXPECT_THROW(server.try_submit(Tensor({4})), std::invalid_argument);
}

}  // namespace
}  // namespace capr
