// Concurrent fleet inference server: worker pool + adaptive
// micro-batching over a registry of named model variants.
//
// Clients submit single samples — optionally routed by model id and
// carrying a tenant/priority ticket — and get a std::future for the
// result. Workers pull from a bounded MPSC queue; each pop coalesces
// whatever else is already queued (up to max_batch). The batching is
// work-conserving: a worker lingers up to max_delay_us for stragglers
// only when no other worker is idle. While one is, the batch runs at
// once and a straggler goes to the idle worker, so a lone request on a
// lightly loaded server never waits out the linger; under load, when
// every worker is busy, batches still grow to amortise per-call
// overhead. A coalesced batch may mix models; workers partition it by
// session and run each group separately.
//
// Idle workers poll, then park. A submit that has to wake a worker
// sleeping on the queue's condition variable makes a FUTEX_WAKE, and on
// a virtualised host that call has been measured to stall the
// submitting thread for up to ~16 ms (perfbench serve-overhead: 542 of
// the 573 ms spent in submits slower than 50 µs was that one call). So
// when the host has a core to spare beyond the workers, an idle worker
// (and a lingering one) spins on the queue for up to kIdlePollWindow
// before it parks, and in steady state a submit finds nobody asleep and
// wakes no one. On a host without a spare core, workers park at once.
//
// Routing + hot-swap: submit() resolves the model id against the
// ModelRegistry ONCE, at submit time, and the request carries its
// session snapshot to the worker. A concurrent publish() therefore
// never touches in-flight work: old requests drain on the old immutable
// session (freed by refcount when the last one resolves), new requests
// route to the new session, and no request is ever dropped or served a
// half-swapped model.
//
// Because the tiled GEMM accumulates every output element in a fixed
// k-ascending order with zero-padded partial tiles, a sample's logits do
// not depend on which other samples share its micro-batch: serving
// results are bitwise-identical to a batch-1 Model::forward(x, false)
// regardless of batching, worker count, or arrival order.
//
// Backpressure: the queue is bounded; try_submit fails fast when it is
// full, and a tenant over its quota is shed with kRejected even on the
// blocking submit (never a deadlock). Deadlines: a request carries an
// optional absolute deadline and is rejected with kTimeout if a worker
// picks it up too late. Shutdown closes the queue, drains accepted
// work, then joins the workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "util/thread_annotations.h"

namespace capr::serve {

enum class RequestStatus {
  kOk,            // output holds the logits
  kTimeout,       // deadline expired before a worker ran the sample
  kRejected,      // shed: queue full (backpressure) or tenant over quota
  kShutdown,      // submitted after shutdown began
  kUnknownModel,  // no variant bound to the requested model id
  kError,         // inference threw; see error
};

const char* to_string(RequestStatus status);

struct InferResult {
  RequestStatus status = RequestStatus::kError;
  Tensor output;            // [num_classes] logits when status == kOk
  std::string error;        // diagnostic when status == kError
  int64_t latency_us = 0;   // submit -> completion (all statuses)
};

struct ServerConfig {
  /// Worker threads; 0 means use the global num_threads() setting.
  int workers = 0;
  /// Bound of the request queue — the backpressure limit.
  size_t queue_capacity = 64;
  /// Largest micro-batch a worker will coalesce. 1 disables batching.
  size_t max_batch = 8;
  /// How long a worker holding a partial batch lingers for stragglers.
  /// It lingers only when no other worker is idle (see file comment), so
  /// this bounds the wait a request pays to join a batch under load; a
  /// request that finds an idle worker runs at once.
  int64_t max_delay_us = 200;
  /// Deadline applied by submit() when the caller gives none. 0 = none.
  int64_t default_timeout_us = 0;
  /// Model id a SubmitOptions with an empty model routes to.
  std::string default_model = "default";
  /// Oldest-request aging bound forwarded to the queue (pops a starved
  /// low-priority request after this many higher-priority overtakes).
  uint64_t starvation_limit = 64;
  /// Per-tenant queued-request quotas installed at construction
  /// (tenant -> max queued; 0 bans the tenant). Over-quota submits shed
  /// with kRejected.
  std::vector<std::pair<int, size_t>> tenant_quotas;
};

/// Per-request routing and scheduling choices; the default routes to
/// ServerConfig::default_model with tenant 0, priority 0, no deadline.
struct SubmitOptions {
  std::string model;  // empty = default_model
  int tenant = 0;
  int priority = 0;  // higher runs first (starvation-bounded)
  /// Absolute deadline; unset applies default_timeout_us.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  uint64_t submitted = 0;   // accepted into the queue
  uint64_t rejected = 0;    // shed: queue full or tenant over quota
  uint64_t completed = 0;   // finished with kOk
  uint64_t timed_out = 0;   // rejected at pop time (deadline expired)
  uint64_t errored = 0;     // inference threw
  uint64_t unknown_model = 0;  // routed to an unbound model id
  uint64_t batches = 0;     // micro-batches executed
  uint64_t batched_samples = 0;  // samples across those batches
};

/// How long an idle worker spins for work before it parks. Every idle
/// gap costs each worker at most this much CPU; 2 ms covers the
/// inter-arrival gaps of the perfbench workloads (300–10000 QPS over 2
/// workers), so in steady state no worker is asleep when a request
/// arrives.
inline constexpr std::chrono::microseconds kIdlePollWindow{2000};

/// The poll window `workers` workers use on this host: kIdlePollWindow
/// when std::thread::hardware_concurrency() exceeds `workers` (a spare
/// core for the submitting thread), else 0 (park at once, so spinning
/// workers never starve the submitter of a CPU).
std::chrono::nanoseconds idle_poll_window(int workers);

class InferenceServer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Fleet server: routes requests across the registry's variants. The
  /// registry is shared and stays publishable while the server runs —
  /// that is the hot-swap path. Workers start immediately.
  InferenceServer(std::shared_ptr<ModelRegistry> registry, ServerConfig cfg);

  /// Single-model convenience: wraps `session` in a private registry
  /// under cfg.default_model. The session is shared: several servers
  /// (or direct callers) may hold it at once.
  InferenceServer(std::shared_ptr<const InferenceSession> session, ServerConfig cfg);

  /// Calls shutdown().
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Blocking submit of one CHW sample (shape must equal the routed
  /// session's input_shape). Waits for queue space, but sheds instantly
  /// with kRejected when the tenant is over quota and resolves
  /// kUnknownModel when the model id is unbound. The future resolves
  /// with kShutdown if the server stops first. Applies
  /// default_timeout_us unless opts carries a deadline.
  std::future<InferResult> submit(Tensor sample, const SubmitOptions& opts);

  /// Blocking submit with default routing (default model, tenant 0).
  std::future<InferResult> submit(Tensor sample);

  /// Blocking submit with an explicit absolute deadline. A deadline
  /// already in the past is accepted and rejected with kTimeout by the
  /// worker — tests use this for deterministic timeout coverage.
  std::future<InferResult> submit(Tensor sample, Clock::time_point deadline);

  /// Non-blocking submit: nullopt when the queue is full (backpressure)
  /// — the sample was NOT accepted and the caller should retry or shed
  /// load. Over-quota and unknown-model submissions return a ready
  /// future (kRejected / kUnknownModel). After shutdown it returns a
  /// future resolving to kShutdown.
  std::optional<std::future<InferResult>> try_submit(Tensor sample,
                                                     const SubmitOptions& opts);
  std::optional<std::future<InferResult>> try_submit(Tensor sample);

  /// Closes the queue (new submits get kShutdown), drains accepted
  /// requests, joins workers. Idempotent and safe to call from several
  /// threads at once (join_mu_ serialises the join).
  void shutdown() CAPR_EXCLUDES(join_mu_);

  ServerStats stats() const;
  const ServerConfig& config() const { return cfg_; }
  /// The fleet behind this server; publish here to hot-swap variants.
  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }

 private:
  struct Request {
    Tensor sample;
    /// Session snapshot resolved at submit time: the hot-swap drain
    /// token (see file comment).
    std::shared_ptr<const InferenceSession> session;
    std::promise<InferResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // Clock::time_point::max() when none
  };

  /// Shared submit path. On the non-blocking path a full queue sets
  /// *queue_full and returns an invalid future (try_submit maps it to
  /// nullopt); every other outcome is a real future.
  std::future<InferResult> submit_impl(Tensor sample, const SubmitOptions& opts,
                                       bool blocking, bool* queue_full);
  Clock::time_point effective_deadline(const SubmitOptions& opts) const;
  void worker_loop();
  /// Runs one session's share of a batch. `live` is worker-local
  /// storage, reused across batches like `stacked`.
  void process_group(const std::vector<Request*>& group, std::vector<Request*>& live,
                     nn::InferScratch& scratch, Tensor& stacked);

  std::shared_ptr<ModelRegistry> registry_;
  ServerConfig cfg_;
  BoundedQueue<Request> queue_;
  /// Serialises shutdown(): the destructor, an explicit shutdown() call
  /// and a concurrent one from another thread must not race the joins.
  Mutex join_mu_;
  std::vector<std::thread> workers_ CAPR_GUARDED_BY(join_mu_);
  std::atomic<bool> stopping_{false};
  /// Workers waiting for work; a worker lingers only when it is 0.
  std::atomic<int> idle_workers_{0};

  std::atomic<uint64_t> n_submitted_{0};
  std::atomic<uint64_t> n_rejected_{0};
  std::atomic<uint64_t> n_completed_{0};
  std::atomic<uint64_t> n_timed_out_{0};
  std::atomic<uint64_t> n_errored_{0};
  std::atomic<uint64_t> n_unknown_model_{0};
  std::atomic<uint64_t> n_batches_{0};
  std::atomic<uint64_t> n_batched_samples_{0};
};

}  // namespace capr::serve
