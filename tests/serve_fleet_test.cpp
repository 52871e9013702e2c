// Fleet serving contract tests: the ModelRegistry and hot-swap path.
//
// The load-bearing guarantees, in test order:
//   - registry bookkeeping (publish/find/remove/version) is atomic and
//     concurrent publishes never corrupt it;
//   - an incompatible or uncertified publish throws and the live variant
//     keeps serving, untouched;
//   - requests route by model id and stay bitwise-identical to the
//     training-side forward of the routed variant;
//   - a hot-swap under full client load drops NOTHING: every request
//     completes kOk and is bitwise-equal to either the old or the new
//     variant (never a half-swapped mix);
//   - the displaced session drains by refcount — it is destroyed exactly
//     when the last in-flight holder lets go, never earlier.
// FleetStressTest is the TSan lane target (see CMakePresets.json):
// publish / route / shutdown racing freely on one server.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/surgeon.h"
#include "models/builders.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"

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

// The builder is deterministic (same arch + cfg -> same weights), so
// pruning one filter yields a second variant with the same serving
// contract (input shape, class count) but different logits — exactly
// what a real pruned redeploy looks like.
nn::Model make_pruned_tiny(const models::BuildConfig& cfg) {
  nn::Model m = models::make_model("tiny", cfg);
  EXPECT_GE(m.units[0].conv->out_channels(), 2);
  core::remove_filters(m, 0, {1});
  return m;
}

std::shared_ptr<const serve::InferenceSession> session_of(nn::Model model) {
  return std::make_shared<const serve::InferenceSession>(
      serve::InferenceSession(std::move(model)));
}

serve::SubmitOptions route_to(const std::string& id) {
  serve::SubmitOptions opts;
  opts.model = id;
  return opts;
}

TEST(ModelRegistryTest, PublishFindRemoveVersioning) {
  serve::ModelRegistry reg;
  EXPECT_EQ(reg.find("a"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.version("a"), 0u);

  auto a1 = session_of(models::make_model("tiny", small_cfg()));
  auto a2 = session_of(make_pruned_tiny(small_cfg()));
  EXPECT_EQ(reg.publish("a", a1, /*warm_batch=*/0), nullptr);
  EXPECT_EQ(reg.find("a").get(), a1.get());
  EXPECT_EQ(reg.version("a"), 1u);

  // Republishing returns the displaced session and bumps the version.
  EXPECT_EQ(reg.publish("a", a2, 0).get(), a1.get());
  EXPECT_EQ(reg.find("a").get(), a2.get());
  EXPECT_EQ(reg.version("a"), 2u);

  reg.publish("b", a1, 0);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.ids(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.publishes(), 3u);

  EXPECT_TRUE(reg.remove("a"));
  EXPECT_FALSE(reg.remove("a"));
  EXPECT_EQ(reg.find("a"), nullptr);
  EXPECT_EQ(reg.version("a"), 0u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ModelRegistryTest, RejectsNullAndIncompatiblePublish) {
  serve::ModelRegistry reg;
  EXPECT_THROW(reg.publish("a", nullptr), std::invalid_argument);

  auto live = session_of(models::make_model("tiny", small_cfg()));
  reg.publish("a", live, 0);

  // A swap must not change the serving contract mid-stream: different
  // class count and different input size are both rejected...
  models::BuildConfig other = small_cfg();
  other.num_classes = 6;
  EXPECT_THROW(reg.publish("a", session_of(models::make_model("tiny", other)), 0),
               std::invalid_argument);
  other = small_cfg();
  other.input_size = 16;
  EXPECT_THROW(reg.publish("a", session_of(models::make_model("tiny", other)), 0),
               std::invalid_argument);

  // ...and the live variant is untouched by the failed attempts.
  EXPECT_EQ(reg.find("a").get(), live.get());
  EXPECT_EQ(reg.version("a"), 1u);
  EXPECT_EQ(reg.publishes(), 1u);

  // A different id is a fresh contract — the same session is fine there.
  other = small_cfg();
  other.num_classes = 6;
  EXPECT_NO_THROW(reg.publish("b", session_of(models::make_model("tiny", other)), 0));
}

TEST(ModelRegistryTest, RejectsUncertifiedCheckpointAndKeepsServing) {
  const models::BuildConfig cfg = small_cfg();
  serve::ModelRegistry reg;
  auto live = session_of(models::make_model("tiny", cfg));
  reg.publish("m", live, 0);

  // Wrong architecture: a vgg11 checkpoint cannot replay into resnet20.
  const std::string wrong = ::testing::TempDir() + "capr_fleet_wrongarch.ckpt";
  save_tensor_map(wrong, models::make_model("vgg11", cfg).state_dict());
  EXPECT_THROW(reg.publish_checkpoint("m", "resnet20", cfg, wrong), std::exception);

  // Tampered: drop one tensor from an otherwise valid checkpoint.
  const std::string tampered = ::testing::TempDir() + "capr_fleet_tampered.ckpt";
  std::map<std::string, Tensor> state = models::make_model("tiny", cfg).state_dict();
  ASSERT_FALSE(state.empty());
  state.erase(state.begin());
  save_tensor_map(tampered, state);
  EXPECT_THROW(reg.publish_checkpoint("m", "tiny", cfg, tampered), std::exception);

  // Unreadable path.
  EXPECT_THROW(reg.publish_checkpoint("m", "tiny", cfg, "/nonexistent/no.ckpt"),
               std::exception);

  // Every rejection left the live variant serving, untouched.
  EXPECT_EQ(reg.find("m").get(), live.get());
  EXPECT_EQ(reg.version("m"), 1u);
  EXPECT_EQ(reg.publishes(), 1u);
}

TEST(ModelRegistryTest, CertifiedCheckpointPublishServesBitwise) {
  const models::BuildConfig cfg = small_cfg();
  nn::Model pruned = make_pruned_tiny(cfg);
  const Tensor x = random_batch(pruned.input_shape, 3, 41);
  const Tensor want = pruned.forward(x, /*training=*/false);
  const std::string path = ::testing::TempDir() + "capr_fleet_pruned.ckpt";
  save_tensor_map(path, pruned.state_dict());

  serve::ModelRegistry reg;
  reg.publish("m", session_of(models::make_model("tiny", cfg)), 0);
  auto displaced = reg.publish_checkpoint("m", "tiny", cfg, path);
  ASSERT_NE(displaced, nullptr);
  EXPECT_EQ(reg.version("m"), 2u);

  nn::InferScratch scratch;
  EXPECT_TRUE(bitwise_equal(reg.find("m")->run(x, scratch), want));
}

TEST(ModelRegistryTest, ConcurrentPublishesAreAtomic) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  auto sess = session_of(models::make_model("tiny", small_cfg()));
  serve::ModelRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) reg.publish("shared", sess, 0);
      reg.publish("t" + std::to_string(t), sess, 0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.version("shared"), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reg.size(), static_cast<size_t>(kThreads + 1));
  EXPECT_EQ(reg.publishes(), static_cast<uint64_t>(kThreads * kPerThread + kThreads));
}

TEST(FleetRoutingTest, RoutesByModelIdBitwise) {
  const models::BuildConfig cfg = small_cfg();
  nn::Model dense = models::make_model("tiny", cfg);
  nn::Model pruned = make_pruned_tiny(cfg);
  const Tensor x = random_batch(dense.input_shape, 4, 43);
  const Tensor want_dense = dense.forward(x, false);
  const Tensor want_pruned = pruned.forward(x, false);
  ASSERT_FALSE(bitwise_equal(want_dense, want_pruned));  // variants must differ

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("dense", session_of(std::move(dense)), 0);
  registry->publish("pruned", session_of(std::move(pruned)), 0);

  serve::ServerConfig scfg;
  scfg.workers = 2;
  scfg.max_batch = 8;  // mixed-model coalescing: workers partition by session
  scfg.default_model = "dense";
  serve::InferenceServer server(registry, scfg);

  std::vector<std::future<serve::InferResult>> dense_futs, pruned_futs;
  for (int64_t i = 0; i < x.dim(0); ++i) {
    dense_futs.push_back(server.submit(sample_of(x, i)));  // default route
    pruned_futs.push_back(server.submit(sample_of(x, i), route_to("pruned")));
  }
  for (int64_t i = 0; i < x.dim(0); ++i) {
    serve::InferResult d = dense_futs[static_cast<size_t>(i)].get();
    serve::InferResult p = pruned_futs[static_cast<size_t>(i)].get();
    ASSERT_EQ(d.status, serve::RequestStatus::kOk) << d.error;
    ASSERT_EQ(p.status, serve::RequestStatus::kOk) << p.error;
    EXPECT_TRUE(row_equals(want_dense, i, d.output)) << "dense row " << i;
    EXPECT_TRUE(row_equals(want_pruned, i, p.output)) << "pruned row " << i;
  }

  // An unbound id resolves immediately — blocking and non-blocking alike.
  auto unknown = server.submit(sample_of(x, 0), route_to("nope"));
  EXPECT_EQ(unknown.get().status, serve::RequestStatus::kUnknownModel);
  auto try_unknown = server.try_submit(sample_of(x, 0), route_to("nope"));
  ASSERT_TRUE(try_unknown.has_value());
  EXPECT_EQ(try_unknown->get().status, serve::RequestStatus::kUnknownModel);
  EXPECT_EQ(server.stats().unknown_model, 2u);
  EXPECT_EQ(server.stats().errored, 0u);
}

// The headline hot-swap guarantee: 4 workers, 4 client threads at full
// blocking load, repeated concurrent publishes flipping the variant —
// and still zero dropped/errored requests, with every response
// bitwise-equal to the OLD or the NEW variant's training forward.
TEST(FleetHotSwapTest, ZeroDowntimeUnderConcurrentPublishes) {
  const models::BuildConfig cfg = small_cfg();
  nn::Model model_a = models::make_model("tiny", cfg);
  nn::Model model_b = make_pruned_tiny(cfg);
  constexpr int64_t kSamples = 8;
  const Tensor x = random_batch(model_a.input_shape, kSamples, 47);
  const Tensor want_a = model_a.forward(x, false);
  const Tensor want_b = model_b.forward(x, false);
  auto sess_a = session_of(std::move(model_a));
  auto sess_b = session_of(std::move(model_b));

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("m", sess_a, 0);
  serve::ServerConfig scfg;
  scfg.workers = 4;
  scfg.max_batch = 4;
  scfg.queue_capacity = 32;
  scfg.default_model = "m";
  serve::InferenceServer server(registry, scfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  constexpr int kPublishes = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::InferResult>> futs;
      std::vector<int64_t> rows;
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t i = (c + r) % kSamples;
        futs.push_back(server.submit(sample_of(x, i)));  // blocking: nothing shed
        rows.push_back(i);
      }
      for (size_t k = 0; k < futs.size(); ++k) {
        serve::InferResult res = futs[k].get();
        if (res.status != serve::RequestStatus::kOk ||
            (!row_equals(want_a, rows[k], res.output) &&
             !row_equals(want_b, rows[k], res.output))) {
          ++bad;
        }
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < kPublishes; ++i) {
      registry->publish("m", (i % 2 == 0) ? sess_b : sess_a, /*warm_batch=*/4);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : clients) t.join();
  publisher.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(registry->version("m"), static_cast<uint64_t>(kPublishes + 1));
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.errored, 0u);
  EXPECT_EQ(stats.unknown_model, 0u);
}

TEST(FleetHotSwapTest, DisplacedSessionDrainsByRefcount) {
  const models::BuildConfig cfg = small_cfg();
  auto sess_a = session_of(models::make_model("tiny", cfg));
  auto sess_b = session_of(make_pruned_tiny(cfg));
  const std::weak_ptr<const serve::InferenceSession> weak_a = sess_a;

  // Registry level, deterministic: a find() snapshot is the drain token.
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("m", sess_a, 0);
  std::shared_ptr<const serve::InferenceSession> in_flight = registry->find("m");
  auto displaced = registry->publish("m", sess_b, 0);
  EXPECT_EQ(displaced.get(), sess_a.get());
  sess_a.reset();
  displaced.reset();
  // The swap is live, yet the in-flight snapshot still pins the old
  // session...
  EXPECT_EQ(registry->find("m").get(), sess_b.get());
  EXPECT_FALSE(weak_a.expired());
  // ...and releasing the last holder is what destroys it.
  in_flight.reset();
  EXPECT_TRUE(weak_a.expired());

  // Server level: requests snapshot their session at submit time, so
  // after shutdown() drains them no worker holds the old session either.
  auto sess_c = session_of(models::make_model("tiny", cfg));
  const std::weak_ptr<const serve::InferenceSession> weak_c = sess_c;
  registry->publish("m", sess_c, 0);
  sess_c.reset();
  serve::ServerConfig scfg;
  scfg.workers = 2;
  scfg.default_model = "m";
  serve::InferenceServer server(registry, scfg);
  const Shape& in = sess_b->input_shape();
  std::vector<std::future<serve::InferResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(random_batch(in, 1, 7).reshape(in)));
  registry->publish("m", sess_b, 0);  // displaces sess_c while requests may be in flight
  for (auto& f : futs) EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  server.shutdown();
  EXPECT_TRUE(weak_c.expired());
}

// TSan lane target: publish, route and shutdown racing freely. The
// assertions on outcomes are the allowed-status set and counter
// conservation — the point is that the race itself is clean under TSan,
// nothing errors and no accepted request goes unaccounted.
TEST(FleetStressTest, RacingPublishRouteShutdown) {
  const models::BuildConfig cfg = small_cfg();
  auto sess_a = session_of(models::make_model("tiny", cfg));
  auto sess_b = session_of(make_pruned_tiny(cfg));
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("m", sess_a, 0);

  serve::ServerConfig scfg;
  scfg.workers = 2;
  scfg.max_batch = 4;
  scfg.queue_capacity = 16;
  scfg.default_model = "m";
  serve::InferenceServer server(registry, scfg);
  const Shape& in = sess_a->input_shape();
  const Tensor x = random_batch(in, 4, 53);

  std::atomic<int> disallowed{0};
  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<serve::InferResult>> futs;
      for (int i = 0; i < 120; ++i) {
        // A sprinkle of unknown-id routes races against remove/publish.
        auto fut = server.try_submit(sample_of(x, (c + i) % 4),
                                     route_to(i % 7 == 0 ? "ghost" : "m"));
        if (fut.has_value()) futs.push_back(std::move(*fut));
      }
      for (auto& f : futs) {
        const serve::RequestStatus s = f.get().status;
        if (s != serve::RequestStatus::kOk && s != serve::RequestStatus::kUnknownModel &&
            s != serve::RequestStatus::kShutdown) {
          ++disallowed;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 60; ++i) {
      if (i % 10 == 9) {
        registry->remove("m");  // routes briefly see kUnknownModel
      }
      registry->publish("m", (i % 2 == 0) ? sess_b : sess_a, 0);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();  // races the still-running clients and publisher
  for (auto& t : threads) t.join();

  EXPECT_EQ(disallowed.load(), 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.errored, 0u);
  // Conservation: every accepted request ended in exactly one terminal
  // counter, even with shutdown racing the clients.
  EXPECT_EQ(stats.submitted, stats.completed + stats.timed_out + stats.errored);
}

}  // namespace
}  // namespace capr
