#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "tensor/parallel.h"

namespace capr::serve {

namespace {

int64_t us_between(InferenceServer::Clock::time_point from,
                   InferenceServer::Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
}

InferResult terminal_result(RequestStatus status, int64_t latency_us) {
  InferResult res;
  res.status = status;
  res.latency_us = latency_us;
  return res;
}

std::future<InferResult> ready_future(RequestStatus status) {
  std::promise<InferResult> p;
  p.set_value(terminal_result(status, 0));
  return p.get_future();
}

}  // namespace

std::chrono::nanoseconds idle_poll_window(int workers) {
  const unsigned cores = std::thread::hardware_concurrency();  // 0 when unknown
  return cores > static_cast<unsigned>(std::max(workers, 0)) ? kIdlePollWindow
                                                              : std::chrono::nanoseconds{0};
}

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kTimeout:
      return "timeout";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kShutdown:
      return "shutdown";
    case RequestStatus::kUnknownModel:
      return "unknown-model";
    case RequestStatus::kError:
      return "error";
  }
  return "unknown";
}

InferenceServer::InferenceServer(std::shared_ptr<ModelRegistry> registry, ServerConfig cfg)
    : registry_(std::move(registry)), cfg_(std::move(cfg)), queue_(cfg_.queue_capacity) {
  if (!registry_) throw std::invalid_argument("InferenceServer: null registry");
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  queue_.set_starvation_limit(cfg_.starvation_limit);
  for (const auto& [tenant, quota] : cfg_.tenant_quotas) queue_.set_quota(tenant, quota);
  int workers = cfg_.workers > 0 ? cfg_.workers : num_threads();
  if (workers < 1) workers = 1;
  cfg_.workers = workers;
  queue_.set_poll_window(idle_poll_window(workers));
  // A worker counts as idle from its start until it takes a request.
  idle_workers_.store(workers, std::memory_order_relaxed);
  // Hold join_mu_ while spawning: a worker never touches workers_, so
  // this cannot deadlock, and the guarded field is only ever accessed
  // under its mutex.
  MutexLock lock(join_mu_);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

namespace {

std::shared_ptr<ModelRegistry> single_model_registry(
    std::shared_ptr<const InferenceSession> session, const std::string& id) {
  if (!session) throw std::invalid_argument("InferenceServer: null session");
  auto registry = std::make_shared<ModelRegistry>();
  // Workers warm their own scratch on first contact; skip the publish
  // warm so single-session construction stays cheap.
  registry->publish(id, std::move(session), /*warm_batch=*/0);
  return registry;
}

}  // namespace

// NOTE: cfg is passed by value (not moved) into the delegated call —
// argument evaluation order is unspecified and the registry arg reads
// cfg.default_model.
InferenceServer::InferenceServer(std::shared_ptr<const InferenceSession> session,
                                 ServerConfig cfg)
    : InferenceServer(single_model_registry(std::move(session), cfg.default_model), cfg) {}

InferenceServer::~InferenceServer() { shutdown(); }

InferenceServer::Clock::time_point InferenceServer::effective_deadline(
    const SubmitOptions& opts) const {
  if (opts.deadline) return *opts.deadline;
  if (cfg_.default_timeout_us > 0) {
    return Clock::now() + std::chrono::microseconds(cfg_.default_timeout_us);
  }
  return Clock::time_point::max();
}

std::future<InferResult> InferenceServer::submit_impl(Tensor sample,
                                                      const SubmitOptions& opts,
                                                      bool blocking, bool* queue_full) {
  if (stopping_.load(std::memory_order_acquire)) {
    return ready_future(RequestStatus::kShutdown);
  }
  // Route ONCE, here: the request pins this session snapshot until its
  // future resolves, so a concurrent hot-swap drains in-flight work on
  // the old session instead of dropping or re-routing it.
  const std::string& model = opts.model.empty() ? cfg_.default_model : opts.model;
  std::shared_ptr<const InferenceSession> session = registry_->find(model);
  if (!session) {
    n_unknown_model_.fetch_add(1, std::memory_order_relaxed);
    return ready_future(RequestStatus::kUnknownModel);
  }
  const Shape& want = session->input_shape();
  if (sample.shape() != want) {
    throw std::invalid_argument("InferenceServer: sample shape " +
                                capr::to_string(sample.shape()) + " does not match model '" +
                                model + "' input " + capr::to_string(want));
  }
  Request req;
  req.sample = std::move(sample);
  req.session = std::move(session);
  req.enqueued = Clock::now();
  req.deadline = effective_deadline(opts);
  std::future<InferResult> fut = req.promise.get_future();
  const Ticket ticket{opts.tenant, opts.priority};
  const PushStatus pushed = blocking ? queue_.push(std::move(req), ticket)
                                     : queue_.try_push(std::move(req), ticket);
  switch (pushed) {
    case PushStatus::kOk:
      n_submitted_.fetch_add(1, std::memory_order_relaxed);
      return fut;
    case PushStatus::kClosed:
      // Closed while we were waiting for space; req still owns the promise.
      return ready_future(RequestStatus::kShutdown);
    case PushStatus::kOverQuota:
      // Quota sheds are immediate even on the blocking path — a banned
      // or saturated tenant must never deadlock behind its own backlog.
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      return ready_future(RequestStatus::kRejected);
    case PushStatus::kFull:
      break;
  }
  // kFull only reaches here on the non-blocking path: signal "not
  // accepted, retry or shed".
  n_rejected_.fetch_add(1, std::memory_order_relaxed);
  *queue_full = true;
  return {};
}

std::future<InferResult> InferenceServer::submit(Tensor sample, const SubmitOptions& opts) {
  return submit_impl(std::move(sample), opts, /*blocking=*/true, nullptr);
}

std::future<InferResult> InferenceServer::submit(Tensor sample) {
  return submit(std::move(sample), SubmitOptions{});
}

std::future<InferResult> InferenceServer::submit(Tensor sample, Clock::time_point deadline) {
  SubmitOptions opts;
  opts.deadline = deadline;
  return submit(std::move(sample), opts);
}

std::optional<std::future<InferResult>> InferenceServer::try_submit(
    Tensor sample, const SubmitOptions& opts) {
  bool queue_full = false;
  std::future<InferResult> fut =
      submit_impl(std::move(sample), opts, /*blocking=*/false, &queue_full);
  if (queue_full) return std::nullopt;  // not accepted: retry or shed
  return fut;
}

std::optional<std::future<InferResult>> InferenceServer::try_submit(Tensor sample) {
  return try_submit(std::move(sample), SubmitOptions{});
}

void InferenceServer::shutdown() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  // Workers drain the queue and exit on their own once it is closed;
  // join_mu_ makes concurrent shutdown() calls (destructor + explicit)
  // serialise instead of racing the joins and the clear.
  MutexLock lock(join_mu_);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.submitted = n_submitted_.load(std::memory_order_relaxed);
  s.rejected = n_rejected_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.timed_out = n_timed_out_.load(std::memory_order_relaxed);
  s.errored = n_errored_.load(std::memory_order_relaxed);
  s.unknown_model = n_unknown_model_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.batched_samples = n_batched_samples_.load(std::memory_order_relaxed);
  return s;
}

void InferenceServer::worker_loop() {
  // Parallelism lives ACROSS requests here: force every tensor op this
  // worker runs to execute inline so N workers never oversubscribe the
  // thread pool (and results stay on the deterministic serial path).
  SerialRegionGuard serial;
  nn::InferScratch scratch;
  // Sessions this worker's scratch has been pre-sized for. Warming is
  // an optimisation (run_ref sizes on demand), so a stale entry after a
  // pointer reuse costs at most some first-batch allocations.
  std::unordered_set<const InferenceSession*> warmed;
  Tensor stacked;  // persistent; reset (capacity-reusing) per batch
  std::vector<Request> batch;
  std::vector<Request*> group;
  std::vector<Request*> live;
  for (;;) {
    batch.clear();
    std::optional<Request> first = queue_.pop();
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (!first) return;  // closed and fully drained
    batch.push_back(std::move(*first));
    if (cfg_.max_batch > 1 && batch.size() < cfg_.max_batch) {
      queue_.drain_into(batch, cfg_.max_batch);
      // Work-conserving linger: wait for stragglers only when no other
      // worker is idle to take them at once.
      if (batch.size() < cfg_.max_batch && cfg_.max_delay_us > 0 &&
          idle_workers_.load(std::memory_order_relaxed) == 0) {
        queue_.drain_until(batch, cfg_.max_batch,
                           Clock::now() + std::chrono::microseconds(cfg_.max_delay_us));
      }
    }
    // A coalesced batch may span models (or hot-swap generations):
    // partition by session, preserving arrival order within each group.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].session) continue;  // already claimed by a group
      const InferenceSession* session = batch[i].session.get();
      if (warmed.insert(session).second) {
        if (warmed.size() > 64) warmed.clear();  // pointer-reuse hygiene
        session->warm(scratch, static_cast<int64_t>(cfg_.max_batch));
      }
      group.clear();
      group.push_back(&batch[i]);
      for (size_t j = i + 1; j < batch.size(); ++j) {
        if (batch[j].session.get() == session) group.push_back(&batch[j]);
      }
      process_group(group, live, scratch, stacked);
      // Release each request's drain token as soon as its promise is
      // set (and mark it claimed for the partition scan).
      for (Request* r : group) r->session.reset();
    }
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
  }
}

void InferenceServer::process_group(const std::vector<Request*>& group,
                                    std::vector<Request*>& live, nn::InferScratch& scratch,
                                    Tensor& stacked) {
  const Clock::time_point picked = Clock::now();
  const InferenceSession& session = *group.front()->session;
  live.clear();
  for (Request* r : group) {
    if (r->deadline < picked) {
      // Count BEFORE resolving the future: a client that has observed its
      // result must also see it reflected in stats().
      n_timed_out_.fetch_add(1, std::memory_order_relaxed);
      r->promise.set_value(
          terminal_result(RequestStatus::kTimeout, us_between(r->enqueued, picked)));
    } else {
      live.push_back(r);
    }
  }
  if (live.empty()) return;

  const Shape& in = session.input_shape();
  const int64_t n = static_cast<int64_t>(live.size());
  const int64_t per_sample = in[0] * in[1] * in[2];
  stacked.reset({n, in[0], in[1], in[2]});
  for (int64_t i = 0; i < n; ++i) {
    const Tensor& s = live[static_cast<size_t>(i)]->sample;
    std::copy(s.data(), s.data() + per_sample, stacked.data() + i * per_sample);
  }

  const Tensor* logits = nullptr;
  try {
    logits = &session.run_ref(stacked, scratch);
  } catch (const std::exception& e) {
    const Clock::time_point failed = Clock::now();
    n_errored_.fetch_add(static_cast<uint64_t>(live.size()), std::memory_order_relaxed);
    for (Request* r : live) {
      InferResult res;
      res.status = RequestStatus::kError;
      res.error = e.what();
      res.latency_us = us_between(r->enqueued, failed);
      r->promise.set_value(std::move(res));
    }
    return;
  }

  const int64_t classes = logits->numel() / n;
  const Clock::time_point done = Clock::now();
  n_completed_.fetch_add(static_cast<uint64_t>(live.size()), std::memory_order_relaxed);
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  n_batched_samples_.fetch_add(static_cast<uint64_t>(live.size()), std::memory_order_relaxed);
  for (int64_t i = 0; i < n; ++i) {
    Request* r = live[static_cast<size_t>(i)];
    InferResult res;
    res.status = RequestStatus::kOk;
    res.output = Tensor({classes});
    std::copy(logits->data() + i * classes, logits->data() + (i + 1) * classes,
              res.output.data());
    res.latency_us = us_between(r->enqueued, done);
    r->promise.set_value(std::move(res));
  }
}

}  // namespace capr::serve
