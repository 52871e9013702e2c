// BoundedQueue semantics: FIFO order, backpressure (try_push on a full
// queue), close/drain behaviour, micro-batch coalescing via drain_into /
// drain_until, the same waits with a poll window (poll, then park), and
// a multi-producer stress run. The stress tests double
// as the TSan targets for the serving queue (see CMakePresets.json).
//
// Multi-tenant scheduling contract (tickets): priorities pop highest
// first with an EXACT, deterministic starvation bound (pop-count aging,
// so the tests can pin the bound), and per-tenant quotas shed
// immediately — a zero-quota tenant gets kOverQuota/kRejected, never a
// deadlock, even on the blocking push against a full queue.
#include "serve/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "models/builders.h"
#include "serve/server.h"
#include "serve/session.h"

namespace capr::serve {
namespace {

TEST(BoundedQueueTest, PopsInFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.try_push(int{i}, Ticket{}), PushStatus::kOk);
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.try_push(1, Ticket{}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(2, Ticket{}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(3, Ticket{}), PushStatus::kFull);
  EXPECT_EQ(q.size(), 2u);
  // Popping frees a slot.
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.try_push(3, Ticket{}), PushStatus::kOk);
}

TEST(BoundedQueueTest, FailedTryPushDoesNotConsumeItem) {
  BoundedQueue<std::vector<int>> q(1);
  EXPECT_EQ(q.try_push({1}, Ticket{}), PushStatus::kOk);
  std::vector<int> item{2, 3, 4};
  EXPECT_EQ(q.try_push(std::move(item), Ticket{}), PushStatus::kFull);
  // Moved-from only on success: the caller still owns the payload.
  EXPECT_EQ(item.size(), 3u);
}

TEST(BoundedQueueTest, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.try_push(1, Ticket{}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(2, Ticket{}), PushStatus::kFull);
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(8);
  EXPECT_EQ(q.try_push(1, Ticket{}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(2, Ticket{}), PushStatus::kOk);
  q.close();
  EXPECT_EQ(q.try_push(3, Ticket{}), PushStatus::kClosed);
  // Accepted items are still delivered after close...
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  // ...and only then does pop() report exhaustion.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> q(4);
  std::thread popper([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  popper.join();
}

TEST(BoundedQueueTest, CloseWakesBlockedPush) {
  BoundedQueue<int> q(1);
  ASSERT_EQ(q.try_push(1, Ticket{}), PushStatus::kOk);
  std::thread pusher([&] { EXPECT_EQ(q.push(2, Ticket{}), PushStatus::kClosed); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  pusher.join();
}

TEST(BoundedQueueTest, DrainIntoCoalescesWithoutBlocking) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 6; ++i) ASSERT_EQ(q.try_push(int{i}, Ticket{}), PushStatus::kOk);
  std::vector<int> batch;
  batch.push_back(q.pop().value());
  q.drain_into(batch, 4);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 2u);
  // An empty queue leaves the batch untouched instead of waiting.
  q.drain_into(batch, 4);
  EXPECT_EQ(batch.size(), 4u);
}

TEST(BoundedQueueTest, DrainUntilReturnsAtDeadlineWhenEmpty) {
  BoundedQueue<int> q(4);
  std::vector<int> batch{42};
  const auto start = std::chrono::steady_clock::now();
  q.drain_until(batch, 4, start + std::chrono::milliseconds(20));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(19));
}

TEST(BoundedQueueTest, DrainUntilPicksUpLateArrivals) {
  BoundedQueue<int> q(4);
  std::vector<int> batch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.push(7, Ticket{});
  });
  q.drain_until(batch, 1, std::chrono::steady_clock::now() + std::chrono::seconds(5));
  producer.join();
  EXPECT_EQ(batch, std::vector<int>{7});
}

// Poll-then-park (set_poll_window): every waiting path must behave the
// same whether the waiter parks at once (window 0) or spins first. The
// 10 s window is far longer than any of these tests, so a poller that
// missed an arrival or a close() would show up as a 10 s wait.
constexpr std::chrono::nanoseconds kWindows[] = {std::chrono::nanoseconds{0},
                                                 std::chrono::seconds(10)};

TEST(BoundedQueueTest, PollingPopDeliversItemPushedWhilePolling) {
  for (const auto window : kWindows) {
    BoundedQueue<int> q(4);
    q.set_poll_window(window);
    std::optional<int> got;
    std::chrono::steady_clock::duration waited{};
    std::thread popper([&] {
      const auto start = std::chrono::steady_clock::now();
      got = q.pop();
      waited = std::chrono::steady_clock::now() - start;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(q.try_push(7, Ticket{}), PushStatus::kOk);
    popper.join();
    EXPECT_EQ(got, std::optional<int>(7)) << "window " << window.count();
    EXPECT_LT(waited, std::chrono::seconds(5)) << "window " << window.count();
  }
}

TEST(BoundedQueueTest, CloseEndsPollingPopPromptly) {
  for (const auto window : kWindows) {
    BoundedQueue<int> q(4);
    q.set_poll_window(window);
    std::thread popper([&] { EXPECT_FALSE(q.pop().has_value()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto start = std::chrono::steady_clock::now();
    q.close();
    popper.join();
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5))
        << "window " << window.count();
  }
}

TEST(BoundedQueueTest, PollingDrainUntilHonoursItsDeadline) {
  for (const auto window : kWindows) {
    BoundedQueue<int> q(4);
    q.set_poll_window(window);
    std::vector<int> batch{42};
    const auto start = std::chrono::steady_clock::now();
    q.drain_until(batch, 4, start + std::chrono::milliseconds(20));
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_GE(waited, std::chrono::milliseconds(19)) << "window " << window.count();
    EXPECT_LT(waited, std::chrono::seconds(5)) << "window " << window.count();

    // A straggler pushed during the linger joins the batch.
    std::thread producer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      q.push(7, Ticket{});
    });
    q.drain_until(batch, 2, std::chrono::steady_clock::now() + std::chrono::seconds(5));
    producer.join();
    EXPECT_EQ(batch, (std::vector<int>{42, 7})) << "window " << window.count();
  }
}

TEST(BoundedQueueTest, TicketedPopsHighestPriorityFirstFifoWithin) {
  BoundedQueue<int> q(8);
  q.set_starvation_limit(0);  // pure priority order for this test
  EXPECT_EQ(q.try_push(10, Ticket{0, 0}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(20, Ticket{0, 2}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(11, Ticket{0, 0}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(30, Ticket{0, 5}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(21, Ticket{0, 2}), PushStatus::kOk);
  // Highest priority first; FIFO inside each level.
  EXPECT_EQ(q.pop().value(), 30);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_EQ(q.pop().value(), 21);
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 11);
}

TEST(BoundedQueueTest, StarvationBoundIsExact) {
  // The oldest item is passed over at most L times: with L = 3 a
  // low-priority item queued first is served on the 4th pop, after
  // EXACTLY 3 high-priority overtakes — pop-count aging is deterministic.
  BoundedQueue<int> q(16);
  q.set_starvation_limit(3);
  EXPECT_EQ(q.try_push(0, Ticket{0, 0}), PushStatus::kOk);  // the starved one
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(q.try_push(int{i}, Ticket{0, 1}), PushStatus::kOk);
  }
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 0);  // the aging bound kicks in
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_EQ(q.pop().value(), 5);
  EXPECT_EQ(q.pop().value(), 6);
}

TEST(BoundedQueueTest, EmptiedPriorityLevelIsSkippedAndReused) {
  // A level that drains stays in the queue's level map; pops must skip
  // it while it is empty and serve it again once it refills.
  BoundedQueue<int> q(8);
  EXPECT_EQ(q.try_push(50, Ticket{0, 5}), PushStatus::kOk);
  EXPECT_EQ(q.pop().value(), 50);  // level 5 is now empty
  EXPECT_EQ(q.try_push(1, Ticket{0, 1}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(0, Ticket{0, 0}), PushStatus::kOk);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.try_push(51, Ticket{0, 5}), PushStatus::kOk);
  EXPECT_EQ(q.pop().value(), 51);
  EXPECT_EQ(q.pop().value(), 0);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, ZeroQuotaTenantShedsEvenOnBlockingPush) {
  BoundedQueue<int> q(1);
  q.set_quota(7, 0);  // outright ban
  EXPECT_EQ(q.try_push(1, Ticket{7, 0}), PushStatus::kOverQuota);
  // The blocking push must shed BEFORE waiting for capacity: fill the
  // queue so a capacity wait would block forever, then push as the
  // banned tenant — it has to return immediately.
  EXPECT_EQ(q.try_push(1, Ticket{0, 0}), PushStatus::kOk);
  EXPECT_EQ(q.push(2, Ticket{7, 0}), PushStatus::kOverQuota);
  // Other tenants are unaffected (beyond normal capacity).
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.push(3, Ticket{0, 0}), PushStatus::kOk);
}

TEST(BoundedQueueTest, QuotaIsPerQueuedItemAndReleasedOnPop) {
  BoundedQueue<int> q(8);
  q.set_quota(3, 2);
  EXPECT_EQ(q.try_push(1, Ticket{3, 0}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(2, Ticket{3, 0}), PushStatus::kOk);
  EXPECT_EQ(q.try_push(3, Ticket{3, 0}), PushStatus::kOverQuota);
  EXPECT_EQ(q.queued_for(3), 2u);
  // An unthrottled tenant still has the rest of the capacity.
  EXPECT_EQ(q.try_push(4, Ticket{0, 0}), PushStatus::kOk);
  // Popping one of the tenant's items frees its quota slot.
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.queued_for(3), 1u);
  EXPECT_EQ(q.try_push(5, Ticket{3, 0}), PushStatus::kOk);
}

TEST(BoundedQueueTest, FailedTicketedPushDoesNotConsumeItem) {
  BoundedQueue<std::vector<int>> q(8);
  q.set_quota(1, 0);
  std::vector<int> item{1, 2, 3};
  EXPECT_EQ(q.try_push(std::move(item), Ticket{1, 0}), PushStatus::kOverQuota);
  EXPECT_EQ(item.size(), 3u);  // moved-from only on kOk
  EXPECT_EQ(q.push(std::move(item), Ticket{1, 0}), PushStatus::kOverQuota);
  EXPECT_EQ(item.size(), 3u);
}

TEST(BoundedQueueTest, MultiProducerSingleConsumerDeliversEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> q(8);  // small bound so producers actually block
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(q.push(p * kPerProducer + i, Ticket{}), PushStatus::kOk);
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    std::vector<int> batch;
    for (int got = 0; got < kProducers * kPerProducer;) {
      batch.clear();
      const auto first = q.pop();
      ASSERT_TRUE(first.has_value());
      batch.push_back(*first);
      q.drain_into(batch, 16);
      for (int v : batch) ++seen[static_cast<size_t>(v)];
      got += static_cast<int>(batch.size());
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  for (int v : seen) EXPECT_EQ(v, 1);  // each item exactly once
}

// Server-level view of the same contracts: the ticket rides in through
// SubmitOptions and the shed comes back as a ready kRejected future.

models::BuildConfig tiny_cfg() {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  cfg.width_mult = 0.5f;
  return cfg;
}

TEST(ServerTenantTest, ZeroQuotaTenantGetsRejectedNotDeadlock) {
  auto session = std::make_shared<const InferenceSession>(
      InferenceSession(models::make_model("tiny", tiny_cfg())));
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;  // small enough that a blocking wait would hang
  cfg.tenant_quotas = {{7, 0}};
  InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});

  SubmitOptions banned;
  banned.tenant = 7;
  // The BLOCKING submit resolves immediately with kRejected — a banned
  // tenant must never wait behind the backlog it is not allowed to join.
  InferResult res = server.submit(sample, banned).get();
  EXPECT_EQ(res.status, RequestStatus::kRejected);
  auto try_res = server.try_submit(sample, banned);
  ASSERT_TRUE(try_res.has_value());  // a real (ready) future, not backpressure
  EXPECT_EQ(try_res->get().status, RequestStatus::kRejected);
  EXPECT_EQ(server.stats().rejected, 2u);

  // The default tenant is untouched.
  EXPECT_EQ(server.submit(sample).get().status, RequestStatus::kOk);
}

TEST(ServerTenantTest, QuotaShedsOnlyTheTenantOverItsCap) {
  auto session = std::make_shared<const InferenceSession>(
      InferenceSession(models::make_model("tiny", tiny_cfg())));
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.tenant_quotas = {{2, 1}};
  InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});

  SubmitOptions capped;
  capped.tenant = 2;
  // Burst past the quota: at most one of tenant 2's requests may be
  // queued at a time, so a synchronous burst of 8 sees some shed with
  // kRejected while every accepted one completes kOk.
  int ok = 0, shed = 0;
  std::vector<std::future<InferResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(sample, capped));
  for (auto& f : futs) {
    const RequestStatus s = f.get().status;
    if (s == RequestStatus::kOk) ++ok;
    if (s == RequestStatus::kRejected) ++shed;
  }
  EXPECT_EQ(ok + shed, 8);
  EXPECT_GT(ok, 0);
}

TEST(ServerTenantTest, ExpiredHighPriorityTimesOutWhileLowPriorityCompletes) {
  auto session = std::make_shared<const InferenceSession>(
      InferenceSession(models::make_model("tiny", tiny_cfg())));
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  InferenceServer server(session, cfg);
  const Shape& in = session->input_shape();
  Tensor sample({in[0], in[1], in[2]});

  // An expired deadline on the HIGH-priority request: the worker picks
  // it up first (priority) and rejects it with kTimeout; the valid
  // low-priority request still completes. Deadline enforcement and
  // priority pickup compose instead of masking each other.
  SubmitOptions urgent;
  urgent.priority = 5;
  urgent.deadline = InferenceServer::Clock::now() - std::chrono::milliseconds(1);
  SubmitOptions relaxed;
  relaxed.priority = 0;
  auto expired = server.submit(sample, urgent);
  auto valid = server.submit(sample, relaxed);
  EXPECT_EQ(expired.get().status, RequestStatus::kTimeout);
  EXPECT_EQ(valid.get().status, RequestStatus::kOk);
  EXPECT_GE(server.stats().timed_out, 1u);
}

}  // namespace
}  // namespace capr::serve
