// Open-loop load generation against an InferenceServer.
//
// One generator thread submits requests on a fixed schedule (request i
// is due at t0 + i / rate) and never waits for completions. Every
// request is timed from its due time: latency = (submit call - due) +
// the server's enqueue -> completion time, so a generator or server
// stall is charged to every request it delays. A shed request (full
// queue), a non-kOk status and an output that differs bitwise from the
// batch-1 reference all count as misses: they sort above every served
// latency in the percentiles and count as failures.
//
// A phase whose generator ran late (windowed p99 of submit call - due)
// beyond kLateBoundUs did not offer the load it claims. It is run again,
// at most kMaxAttempts times in all; the re-runs are recorded, and a
// phase still late after the last one is invalid: the result counts it
// as a failed operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "tensor/tensor.h"

namespace perfbench {

/// What a phase submits and checks against.
struct RequestPool {
  std::vector<capr::Tensor> samples;   // CHW request inputs
  std::vector<capr::Tensor> expected;  // batch-1 run_ref logits per sample
  std::vector<uint32_t> order;         // seeded sample sequence, cycled
};

/// Generator lateness bound: a phase's windowed p99 lateness above it
/// makes the phase invalid. Host stalls of 5-20 ms are common and are
/// charged to latency; a generator late by more than this in most
/// windows of three runs in a row is not keeping to its schedule.
inline constexpr double kLateBoundUs = 5000.0;
inline constexpr int kMaxAttempts = 3;

/// Median over consecutive windows of `window` samples (one window when
/// shorter; the last takes the remainder) of each window's nearest-rank
/// q-quantile. `in_order` is in send order.
double windowed_percentile(const std::vector<double>& in_order, double q, int64_t window);

struct PhaseResult {
  double rate_qps = 0.0;
  int64_t sent = 0;
  int64_t shed = 0;        // try_submit refused: queue full
  int64_t failed = 0;      // resolved with a status other than kOk
  int64_t mismatched = 0;  // kOk but not bitwise equal to the reference
  int64_t served = 0;      // kOk and bitwise equal
  int reruns = 0;          // runs repeated because the generator ran late
  /// Due-time latency of every request in send order; kMissUs for a miss.
  std::vector<double> by_request_us;
  /// Generator lateness (submit call - due) of every request, send order.
  std::vector<double> late_us;
  /// InferResult::latency_us (enqueue -> completion) of the served
  /// requests, ascending.
  std::vector<double> server_us;
  /// Time inside try_submit, traced phases only, ascending.
  std::vector<double> submit_us;
  /// Requests still unfinished when the last one was due.
  int64_t backlog_at_end = 0;
  capr::serve::ServerStats stats;  // server counters over the phase

  int64_t misses() const { return shed + failed + mismatched; }
  /// Appends a later phase at the same rate: counts and reruns add,
  /// samples merge, backlog takes the worse of the two.
  void append(const PhaseResult& later);
  /// The phase cut into consecutive windows of at least kWindow requests:
  /// the median over windows of each window's nearest-rank percentile
  /// over all sent requests (a miss ranks above every served latency and
  /// reads as kMissUs). One host stall then moves one window, not the
  /// reported tail.
  double windowed_percentile_us(double q) const {
    return windowed_percentile(by_request_us, q, kWindow);
  }
  int64_t windows() const { return std::max<int64_t>(1, sent / kWindow); }
  /// Samples strictly beyond the nearest rank of q in one window.
  int64_t beyond(double q) const;
  /// Windowed p99 of the generator's lateness, the figure checked
  /// against kLateBoundUs; plus the plain p99 and maximum.
  double late_window_p99_us() const { return windowed_percentile(late_us, 0.99, kWindow); }
  double late_p99_us() const;
  double late_max_us() const;
  bool on_time() const { return late_window_p99_us() <= kLateBoundUs; }

  /// At least ten requests lie beyond the p99 rank of a window this long.
  static constexpr int64_t kWindow = 1000;
};

/// Latency recorded for a shed, failed or wrong response.
inline constexpr double kMissUs = 1e9;

/// Runs `seconds` of arrivals at `rate_qps`, starting at `pool.order`
/// position `offset` (advanced past every request sent), then drains
/// every accepted request. A phase that is not on time is run again, up
/// to kMaxAttempts runs; the last run is returned with its rerun count.
/// With `traced` it also records the time spent inside try_submit.
PhaseResult run_phase(capr::serve::InferenceServer& server, const RequestPool& pool,
                      double rate_qps, double seconds, size_t& offset, bool traced);

inline constexpr size_t kFirstStep = 8;     // rungs, halved at each reversal
inline constexpr size_t kMinStaircase = 4;  // one-rung steps at least

struct Goodput {
  double qps = 0.0;         // mean rate of the one-rung staircase steps
  int probes = 0;           // probes run, confirming ones included
  int reruns = 0;           // probe runs repeated because they ran late
  int late = 0;             // probes still late after kMaxAttempts runs
  int64_t sent = 0;
  int64_t mismatched = 0;  // wrong outputs seen while probing
  std::string steps;        // staircase outcomes in order, 'P' pass / 'F' fail
};

/// Goodput on the ladder lo * 1.05^k (<= hi). A probe of `probe_s`
/// seconds at a rung passes when its windowed p99 (shed requests count
/// as misses) is within `limit_us`, no response failed or was wrong, and
/// the backlog at the end is no larger than the rate times the limit. A
/// rung fails only when two probes in a row fail. A staircase starts at
/// the lowest rung and moves up kFirstStep rungs on a pass and down on a
/// fail, halving the step at each reversal; once the step is one rung it
/// oscillates around the highest passing rung until `budget_s` seconds
/// have passed since the start (and for at least kMinStaircase one-rung
/// steps). The goodput is the mean rate of the one-rung steps, so that
/// no single probe decides it and every decision can be undone.
Goodput find_goodput(capr::serve::InferenceServer& server, const RequestPool& pool,
                     double lo_qps, double hi_qps, double limit_us, double probe_s,
                     double budget_s, size_t& offset);

}  // namespace perfbench
