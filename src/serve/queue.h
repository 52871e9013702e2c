// Bounded multi-tenant MPSC request queue for the serving runtime.
//
// Many client threads push; one worker (or a small pool, each popping
// under the same mutex) drains. The bound is the backpressure mechanism:
// try_push fails fast when the queue is full so callers can reject the
// request instead of letting latency grow without limit.
//
// Every item carries a Ticket {tenant, priority}. The default ticket
// (tenant 0, priority 0) everywhere degenerates to a strict-FIFO queue.
// With tickets:
//
//   - **Priorities.** pop() serves the highest priority first, FIFO
//     within a priority level. To bound starvation, the globally oldest
//     item may be passed over at most `starvation_limit` times; after
//     that it is served next regardless of priority (aging by pop count
//     is deterministic where aging by wall clock is not, so tests can
//     pin the exact bound).
//   - **Per-tenant quotas.** set_quota(tenant, n) caps how many of a
//     tenant's items may be queued at once. Pushing over quota SHEDS
//     (kOverQuota, immediately, even on the blocking push) instead of
//     waiting: a throttled tenant must never deadlock behind its own
//     backlog, and a zero quota is an outright ban. Tenants without a
//     quota only compete for total capacity.
//
// close() wakes every waiter and makes further pushes fail; pops keep
// succeeding until the queue is drained, which is what graceful shutdown
// needs (finish accepted work, accept nothing new).
//
// **Poll, then park.** With set_poll_window(w) a waiting pop() or
// drain_until() first spins for up to w on lock-free mirrors of the size
// and the closed flag, and only then sleeps on the condition variable.
// A push that finds nobody asleep returns from notify_one() without a
// system call; a push that has to wake a parked consumer makes a
// FUTEX_WAKE, which on a virtualised host can stall the pushing thread
// for milliseconds. The default window (0) parks at once.
//
// Locking discipline is a compile-time contract (util/thread_annotations.h):
// all mutable state is CAPR_GUARDED_BY(mu_), every wait loop re-checks
// its predicate with the lock held, and the thread-safety CI lane rejects
// any unlocked access at build time. The two atomic mirrors are hints
// only: a poller that sees them change still takes mu_ and re-checks.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace capr::serve {

/// Scheduling metadata for one queued item. The default ticket keeps the
/// legacy FIFO behaviour exactly.
struct Ticket {
  int tenant = 0;
  int priority = 0;  // higher runs first
};

/// Result of a ticketed push. The bool API maps kOk to true and the
/// three failures to false.
enum class PushStatus {
  kOk,
  kFull,       // queue at capacity (try_push only; push() waits instead)
  kClosed,     // queue closed — nothing is accepted anymore
  kOverQuota,  // tenant at (or banned by) its quota — shed immediately
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Caps `tenant` at `max_queued` items queued at once (0 bans it).
  /// Call before traffic starts; quotas are not re-checked on queued
  /// items.
  void set_quota(int tenant, size_t max_queued) CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    quotas_[tenant].limit = max_queued;
  }

  /// The oldest queued item is served after being passed over at most
  /// this many times by higher-priority pops (default 64). 0 restores
  /// unbounded priority (a busy high level can starve low forever).
  void set_starvation_limit(uint64_t limit) CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    starvation_limit_ = limit;
  }

  /// How long a waiting pop() or drain_until() spins before it parks
  /// (see file comment). 0, the default, parks at once. Only worth it
  /// when the spinning thread has a core of its own.
  void set_poll_window(std::chrono::nanoseconds window) CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    poll_window_ = window;
  }

  /// Non-blocking push. `item` is moved from ONLY on kOk, so the caller
  /// keeps it (and anything it owns, like a promise) on failure.
  PushStatus try_push(T&& item, Ticket ticket) CAPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return PushStatus::kClosed;
      if (over_quota(ticket.tenant)) return PushStatus::kOverQuota;
      if (size_ >= capacity_) return PushStatus::kFull;
      enqueue(std::move(item), ticket);
    }
    not_empty_.notify_one();
    return PushStatus::kOk;
  }

  /// Blocking push; waits for total capacity but NEVER waits on a
  /// tenant quota (kOverQuota sheds immediately — see file comment).
  /// Returns kClosed when the queue closes before or while waiting.
  PushStatus push(T&& item, Ticket ticket) CAPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (over_quota(ticket.tenant)) return PushStatus::kOverQuota;
      while (!closed_ && size_ >= capacity_) not_full_.wait(lock);
      if (closed_) return PushStatus::kClosed;
      if (over_quota(ticket.tenant)) return PushStatus::kOverQuota;
      enqueue(std::move(item), ticket);
    }
    not_empty_.notify_one();
    return PushStatus::kOk;
  }

  /// Blocking pop. Returns nullopt only when the queue is closed AND
  /// drained — accepted items are always delivered. Polls for up to the
  /// poll window before it parks.
  std::optional<T> pop() CAPR_EXCLUDES(mu_) {
    using Clock = std::chrono::steady_clock;
    MutexLock lock(mu_);
    if (!closed_ && size_ == 0 && poll_window_.count() > 0) {
      const Clock::time_point spin_end = Clock::now() + poll_window_;
      do {
        lock.unlock();
        spin_until(spin_end);
        lock.lock();
      } while (!closed_ && size_ == 0 && Clock::now() < spin_end);
    }
    while (!closed_ && size_ == 0) not_empty_.wait(lock);
    if (size_ == 0) return std::nullopt;
    T item = take_next();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Pops up to `max - out.size()` additional items without blocking,
  /// appending to `out` in scheduling order. The micro-batcher calls
  /// this right after a blocking pop() to coalesce whatever has already
  /// queued up.
  void drain_into(std::vector<T>& out, size_t max) CAPR_EXCLUDES(mu_) {
    bool took = false;
    {
      MutexLock lock(mu_);
      while (out.size() < max && size_ > 0) {
        out.push_back(take_next());
        took = true;
      }
    }
    if (took) not_full_.notify_all();
  }

  /// Like drain_into but keeps taking items until `out` holds `max` or
  /// `deadline` passes: the linger of micro-batching, where a worker
  /// holding a partial batch waits briefly for stragglers instead of
  /// launching an underfull batch. The wait polls for up to the poll
  /// window (all of it when the window reaches the deadline), then parks
  /// in a timed wait. The server lingers only when no other worker is
  /// idle; while one is, a straggler is better served by it at once.
  template <typename Clock, typename Duration>
  void drain_until(std::vector<T>& out, size_t max,
                   const std::chrono::time_point<Clock, Duration>& deadline)
      CAPR_EXCLUDES(mu_) {
    bool took = false;
    {
      MutexLock lock(mu_);
      const auto spin_end =
          std::min<std::chrono::time_point<Clock, Duration>>(
              deadline, Clock::now() + std::chrono::duration_cast<Duration>(poll_window_));
      while (out.size() < max) {
        if (size_ > 0) {
          out.push_back(take_next());
          took = true;
          continue;
        }
        if (closed_) break;
        const auto now = Clock::now();
        if (now >= deadline) break;
        if (now < spin_end) {
          lock.unlock();
          spin_until(spin_end);
          lock.lock();
          continue;
        }
        not_empty_.wait_until(lock, deadline);
      }
    }
    if (took) not_full_.notify_all();
  }

  /// Makes every future push fail and wakes all waiters. Items already
  /// queued remain poppable.
  void close() CAPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
      closed_hint_.store(true, std::memory_order_relaxed);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return size_;
  }

  /// Items queued for `tenant`. Only tenants with a quota are counted;
  /// any other tenant reads 0.
  size_t queued_for(int tenant) const CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = quotas_.find(tenant);
    return it == quotas_.end() ? 0 : it->second.queued;
  }

  size_t capacity() const { return capacity_; }

 private:
  /// A tenant's cap and how many of its items are queued now.
  struct Quota {
    size_t limit = 0;
    size_t queued = 0;
  };

  struct Entry {
    T item;
    Quota* quota = nullptr;  // the tenant's quota, when it has one
    uint64_t seq = 0;     // global arrival order
    uint64_t passed = 0;  // times a higher-priority pop skipped this item
  };

  bool over_quota(int tenant) const CAPR_REQUIRES(mu_) {
    const auto it = quotas_.find(tenant);
    return it != quotas_.end() && it->second.queued >= it->second.limit;
  }

  void enqueue(T&& item, Ticket ticket) CAPR_REQUIRES(mu_) {
    Entry e;
    e.item = std::move(item);
    e.seq = next_seq_++;
    // unordered_map never moves its elements, so the pointer stays valid
    // (quotas are never erased).
    const auto quota = quotas_.find(ticket.tenant);
    if (quota != quotas_.end()) {
      e.quota = &quota->second;
      ++e.quota->queued;
    }
    levels_[ticket.priority].push_back(std::move(e));
    ++size_;
    size_hint_.store(size_, std::memory_order_relaxed);
  }

  /// Selects the next item: front of the highest non-empty priority
  /// level, unless the globally oldest item has already been passed over
  /// starvation_limit_ times — then the oldest wins. Emptied levels are
  /// kept (no map node churn per request) and skipped here. Callers hold
  /// mu_ and have checked size_ > 0.
  T take_next() CAPR_REQUIRES(mu_) {
    auto preferred = levels_.begin();  // highest priority (descending map)
    while (preferred->second.empty()) ++preferred;
    auto oldest = preferred;
    for (auto it = std::next(preferred); it != levels_.end(); ++it) {
      if (!it->second.empty() && it->second.front().seq < oldest->second.front().seq) {
        oldest = it;
      }
    }
    auto chosen = preferred;
    if (oldest != preferred) {
      if (starvation_limit_ > 0 && oldest->second.front().passed >= starvation_limit_) {
        chosen = oldest;
      } else {
        ++oldest->second.front().passed;
      }
    }
    Entry e = std::move(chosen->second.front());
    chosen->second.pop_front();
    if (e.quota != nullptr) --e.quota->queued;
    --size_;
    size_hint_.store(size_, std::memory_order_relaxed);
    return std::move(e.item);
  }

  /// Tells the core a spin-wait loop is running (x86 PAUSE, Arm YIELD):
  /// it saves power and frees pipeline resources for a sibling
  /// hyperthread.
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield");
#endif
  }

  /// Spins until an item may be queued, the queue may be closed, or
  /// `end` passes. Reads only the atomic mirrors, so it runs without
  /// mu_; the caller re-checks under the lock.
  template <typename Clock, typename Duration>
  void spin_until(const std::chrono::time_point<Clock, Duration>& end) const
      CAPR_EXCLUDES(mu_) {
    while (size_hint_.load(std::memory_order_relaxed) == 0 &&
           !closed_hint_.load(std::memory_order_relaxed) && Clock::now() < end) {
      cpu_relax();
    }
  }

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  /// Priority level -> FIFO of entries, highest priority first.
  std::map<int, std::deque<Entry>, std::greater<int>> levels_ CAPR_GUARDED_BY(mu_);
  std::unordered_map<int, Quota> quotas_ CAPR_GUARDED_BY(mu_);
  size_t size_ CAPR_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ CAPR_GUARDED_BY(mu_) = 0;
  uint64_t starvation_limit_ CAPR_GUARDED_BY(mu_) = 64;
  std::chrono::nanoseconds poll_window_ CAPR_GUARDED_BY(mu_) = std::chrono::nanoseconds::zero();
  bool closed_ CAPR_GUARDED_BY(mu_) = false;
  /// Lock-free mirrors of size_ and closed_ for pollers, written under mu_.
  std::atomic<size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};
};

}  // namespace capr::serve
