#include "openloop.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>

#include "util.h"

namespace perfbench {
namespace {

using capr::serve::InferResult;
using capr::serve::RequestStatus;

/// Spins until `due`. A sleeping generator wakes up late by the
/// scheduler's latency, which on a loaded host reaches milliseconds.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

bool bitwise_equal(const capr::Tensor& a, const capr::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

capr::serve::ServerStats minus(const capr::serve::ServerStats& a,
                               const capr::serve::ServerStats& b) {
  capr::serve::ServerStats d;
  d.submitted = a.submitted - b.submitted;
  d.rejected = a.rejected - b.rejected;
  d.completed = a.completed - b.completed;
  d.timed_out = a.timed_out - b.timed_out;
  d.errored = a.errored - b.errored;
  d.unknown_model = a.unknown_model - b.unknown_model;
  d.batches = a.batches - b.batches;
  d.batched_samples = a.batched_samples - b.batched_samples;
  return d;
}

PhaseResult run_once(capr::serve::InferenceServer& server, const RequestPool& pool,
                     double rate_qps, double seconds, size_t offset, bool traced) {
  PhaseResult r;
  r.rate_qps = rate_qps;
  const int64_t n = std::max<int64_t>(1, std::llround(rate_qps * seconds));
  const auto due_at = [&, t0 = Clock::now() + std::chrono::milliseconds(2)](int64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate_qps));
  };
  std::vector<std::optional<std::future<InferResult>>> futs(static_cast<size_t>(n));
  std::vector<uint32_t> which(static_cast<size_t>(n));
  r.late_us.resize(static_cast<size_t>(n));
  if (traced) r.submit_us.reserve(static_cast<size_t>(n));
  const capr::serve::ServerStats before = server.stats();

  for (int64_t i = 0; i < n; ++i) {
    const size_t at = static_cast<size_t>(i);
    which[at] = pool.order[(offset + at) % pool.order.size()];
    capr::Tensor sample = pool.samples[which[at]];  // copied before it is due
    const Clock::time_point due = due_at(i);
    wait_until(due);
    const Clock::time_point call = Clock::now();
    futs[at] = server.try_submit(std::move(sample));
    if (traced) r.submit_us.push_back(us_between(call, Clock::now()));
    r.late_us[at] = us_between(due, call);
  }
  r.sent = n;

  const double last_due_us = us_between(due_at(0), due_at(n - 1));
  r.server_us.reserve(static_cast<size_t>(n));
  r.by_request_us.assign(static_cast<size_t>(n), kMissUs);
  for (int64_t i = 0; i < n; ++i) {
    const size_t at = static_cast<size_t>(i);
    if (!futs[at]) {
      ++r.shed;
      ++r.backlog_at_end;
      continue;
    }
    const InferResult res = futs[at]->get();
    if (res.status != RequestStatus::kOk) {
      ++r.failed;
      continue;
    }
    if (!bitwise_equal(res.output, pool.expected[which[at]])) {
      ++r.mismatched;
      continue;
    }
    const double lat = r.late_us[at] + static_cast<double>(res.latency_us);
    r.by_request_us[at] = lat;
    ++r.served;
    r.server_us.push_back(static_cast<double>(res.latency_us));
    const double due_us = us_between(due_at(0), due_at(i));
    if (due_us + lat > last_due_us) ++r.backlog_at_end;
  }
  r.stats = minus(server.stats(), before);
  std::sort(r.server_us.begin(), r.server_us.end());
  std::sort(r.submit_us.begin(), r.submit_us.end());
  return r;
}

}  // namespace

void PhaseResult::append(const PhaseResult& later) {
  const auto merge = [](std::vector<double>& into, const std::vector<double>& from) {
    const auto mid = static_cast<std::ptrdiff_t>(into.size());
    into.insert(into.end(), from.begin(), from.end());
    std::inplace_merge(into.begin(), into.begin() + mid, into.end());
  };
  sent += later.sent;
  shed += later.shed;
  failed += later.failed;
  mismatched += later.mismatched;
  served += later.served;
  reruns += later.reruns;
  merge(server_us, later.server_us);
  merge(submit_us, later.submit_us);
  by_request_us.insert(by_request_us.end(), later.by_request_us.begin(),
                       later.by_request_us.end());
  late_us.insert(late_us.end(), later.late_us.begin(), later.late_us.end());
  backlog_at_end = std::max(backlog_at_end, later.backlog_at_end);
  stats.submitted += later.stats.submitted;
  stats.rejected += later.stats.rejected;
  stats.completed += later.stats.completed;
  stats.timed_out += later.stats.timed_out;
  stats.errored += later.stats.errored;
  stats.unknown_model += later.stats.unknown_model;
  stats.batches += later.stats.batches;
  stats.batched_samples += later.stats.batched_samples;
}

double windowed_percentile(const std::vector<double>& in_order, double q, int64_t window) {
  const auto total = static_cast<int64_t>(in_order.size());
  const int64_t n = std::max<int64_t>(1, total / window);
  const int64_t size = total / n;
  std::vector<double> per_window;
  for (int64_t w = 0; w < n; ++w) {
    const auto first = in_order.begin() + w * size;
    std::vector<double> win(first, w + 1 == n ? in_order.end() : first + size);
    std::sort(win.begin(), win.end());
    per_window.push_back(nearest_rank(win, q));
  }
  return median(std::move(per_window));
}

int64_t PhaseResult::beyond(double q) const {
  const int64_t size = sent / windows();
  return size - static_cast<int64_t>(std::ceil(q * static_cast<double>(size)));
}

double PhaseResult::late_p99_us() const {
  std::vector<double> sorted = late_us;
  std::sort(sorted.begin(), sorted.end());
  return nearest_rank(sorted, 0.99);
}

double PhaseResult::late_max_us() const {
  return late_us.empty() ? 0.0 : *std::max_element(late_us.begin(), late_us.end());
}

PhaseResult run_phase(capr::serve::InferenceServer& server, const RequestPool& pool,
                      double rate_qps, double seconds, size_t& offset, bool traced) {
  PhaseResult p;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    p = run_once(server, pool, rate_qps, seconds, offset, traced);
    offset += static_cast<size_t>(p.sent);
    p.reruns = attempt - 1;
    if (p.on_time()) break;
  }
  return p;
}

Goodput find_goodput(capr::serve::InferenceServer& server, const RequestPool& pool,
                     double lo_qps, double hi_qps, double limit_us, double probe_s,
                     double budget_s, size_t& offset) {
  const Clock::time_point start = Clock::now();
  std::vector<double> rungs;
  for (double q = lo_qps; q <= hi_qps * (1.0 + 1e-9); q *= 1.05) rungs.push_back(q);
  Goodput g;
  const auto probe = [&](size_t k) {
    const PhaseResult p = run_phase(server, pool, rungs[k], probe_s, offset, false);
    ++g.probes;
    g.reruns += p.reruns;
    if (!p.on_time()) ++g.late;
    g.sent += p.sent;
    g.mismatched += p.mismatched;
    const double backlog_limit = std::max(16.0, rungs[k] * limit_us * 1e-6);
    return p.failed == 0 && p.mismatched == 0 && p.windowed_percentile_us(0.99) <= limit_us &&
           static_cast<double>(p.backlog_at_end) <= backlog_limit;
  };
  // A rung fails only when a second probe confirms the first: a host
  // stall fails one probe, a rate past capacity fails both.
  const auto passes = [&](size_t k) { return probe(k) || probe(k); };
  // Staircase from the lowest rung: up `step` rungs on a pass, down on a
  // fail; the step halves at each reversal, and hitting either end of
  // the ladder makes it one rung.
  size_t k = 0;
  size_t step = kFirstStep;
  bool last = true;
  double sum = 0.0;
  size_t counted = 0;
  while (counted < kMinStaircase || seconds_since(start) < budget_s) {
    const bool fine = step == 1;
    const bool pass = passes(k);
    g.steps += pass ? 'P' : 'F';
    if (fine) {
      sum += rungs[k];
      ++counted;
    }
    if (g.steps.size() > 1 && pass != last) step = std::max<size_t>(1, step / 2);
    last = pass;
    if (pass && k + step >= rungs.size()) {
      k = rungs.size() - 1;
      step = 1;
    } else if (!pass && k < step) {
      k = 0;
      step = 1;
    } else {
      k = pass ? k + step : k - step;
    }
  }
  g.qps = sum / static_cast<double>(counted);
  return g;
}

}  // namespace perfbench
