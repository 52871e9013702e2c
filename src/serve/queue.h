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
// Locking discipline is a compile-time contract (util/thread_annotations.h):
// all mutable state is CAPR_GUARDED_BY(mu_), every wait loop re-checks
// its predicate with the lock held, and the thread-safety CI lane rejects
// any unlocked access at build time.
#pragma once

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
    quotas_[tenant] = max_queued;
  }

  /// The oldest queued item is served after being passed over at most
  /// this many times by higher-priority pops (default 64). 0 restores
  /// unbounded priority (a busy high level can starve low forever).
  void set_starvation_limit(uint64_t limit) CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    starvation_limit_ = limit;
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
  /// drained — accepted items are always delivered.
  std::optional<T> pop() CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
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

  /// Like drain_into but first waits (up to `deadline`) for at least one
  /// more item — the adaptive part of micro-batching: a worker holding a
  /// partial batch lingers briefly for stragglers instead of launching an
  /// underfull batch immediately.
  template <typename Clock, typename Duration>
  void drain_until(std::vector<T>& out, size_t max,
                   const std::chrono::time_point<Clock, Duration>& deadline)
      CAPR_EXCLUDES(mu_) {
    bool took = false;
    {
      MutexLock lock(mu_);
      while (out.size() < max) {
        if (size_ == 0) {
          if (closed_) break;
          if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) break;
          continue;
        }
        out.push_back(take_next());
        took = true;
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

  size_t queued_for(int tenant) const CAPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = tenant_counts_.find(tenant);
    return it == tenant_counts_.end() ? 0 : it->second;
  }

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    T item;
    int tenant = 0;
    uint64_t seq = 0;     // global arrival order
    uint64_t passed = 0;  // times a higher-priority pop skipped this item
  };

  bool over_quota(int tenant) const CAPR_REQUIRES(mu_) {
    const auto it = quotas_.find(tenant);
    if (it == quotas_.end()) return false;
    const auto count = tenant_counts_.find(tenant);
    return (count == tenant_counts_.end() ? 0 : count->second) >= it->second;
  }

  void enqueue(T&& item, Ticket ticket) CAPR_REQUIRES(mu_) {
    Entry e;
    e.item = std::move(item);
    e.tenant = ticket.tenant;
    e.seq = next_seq_++;
    levels_[ticket.priority].push_back(std::move(e));
    ++tenant_counts_[ticket.tenant];
    ++size_;
  }

  /// Selects the next item: front of the highest-priority level, unless
  /// the globally oldest item has already been passed over
  /// starvation_limit_ times — then the oldest wins. Callers hold mu_
  /// and have checked size_ > 0.
  T take_next() CAPR_REQUIRES(mu_) {
    auto preferred = levels_.begin();  // highest priority (descending map)
    auto oldest = preferred;
    for (auto it = levels_.begin(); it != levels_.end(); ++it) {
      if (it->second.front().seq < oldest->second.front().seq) oldest = it;
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
    if (chosen->second.empty()) levels_.erase(chosen);
    auto count = tenant_counts_.find(e.tenant);
    if (count != tenant_counts_.end() && --count->second == 0) tenant_counts_.erase(count);
    --size_;
    return std::move(e.item);
  }

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  /// Priority level -> FIFO of entries, highest priority first.
  std::map<int, std::deque<Entry>, std::greater<int>> levels_ CAPR_GUARDED_BY(mu_);
  std::unordered_map<int, size_t> tenant_counts_ CAPR_GUARDED_BY(mu_);
  std::unordered_map<int, size_t> quotas_ CAPR_GUARDED_BY(mu_);
  size_t size_ CAPR_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ CAPR_GUARDED_BY(mu_) = 0;
  uint64_t starvation_limit_ CAPR_GUARDED_BY(mu_) = 64;
  bool closed_ CAPR_GUARDED_BY(mu_) = false;
};

}  // namespace capr::serve
