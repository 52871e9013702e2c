// capr-perfbench: the repo benchmark. One process runs one workload for
// one seed:
//
//   set-up   data generation + model build + base training (setup_reps
//            times, each must give bitwise-identical weights), then
//   prune    strategy::run_strategy with the class-aware strategy
//            (prune_reps times, each must give the same weights), then
//   set-up   rebuild + session compile + server start + warm-up of the
//            pruned model (setup_reps times), then
//   serve    open-loop phases at the workload's light and heavy rates
//            (and, traced, a goodput staircase), every response checked
//            bitwise against a batch-1 run_ref of its sample.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the prune
// loop and profiles the plan, its kernels and the request path from
// outside the library and prints the per-layer metrics. The last stdout
// line is the result object; the line before it records the host and
// run details. See perfbench/README.md.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compile/cache.h"
#include "compile/compiler.h"
#include "core/surgeon.h"
#include "data/synthetic.h"
#include "flops/flops.h"
#include "graph/graph.h"
#include "layers.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "openloop.h"
#include "serve/server.h"
#include "serve/session.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"
#include "tensor/gemm_tiled.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "util.h"

namespace perfbench {
namespace {

using namespace capr;

struct Workload {
  std::string name;
  // Model and data.
  std::string arch;
  float width = 0.25f;
  int64_t image_size = 16;
  int64_t train_per_class = 64;
  int64_t test_per_class = 16;
  float noise = 0.25f;
  float jitter = 0.35f;
  /// Seed of the training data, so of the trained and pruned weights:
  /// each workload prunes and serves one fixed model, and --seed drives
  /// the request sequence.
  uint64_t data_seed = 1;
  int base_epochs = 1;
  int setup_reps = 3;  // set-ups per run; setup_s is their median
  int64_t base_batch = 32;
  float base_lr = 0.05f;
  // Class-aware prune loop (kPercentage).
  float prune_fraction = 0.1f;  // network-wide cap per iteration
  int prune_iterations = 1;
  int finetune_epochs = 1;
  int prune_reps = 3;  // untraced runs; prune_s is their median
  // Open-loop serving.
  double light_qps = 0.0;
  double heavy_qps = 0.0;
  double ladder_lo_qps = 0.0;
  double ladder_hi_qps = 0.0;
  double p99_limit_us = 0.0;
};

// Half of every prunable unit's filters: a 50% network-wide cut under the
// default 50% per-layer cap (SelectionLimits) can only be met by halving
// every unit.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "serve-compute", .arch = "resnet20", .width = 0.5f, .image_size = 32,
       .train_per_class = 16, .test_per_class = 25, .base_epochs = 2,
       .base_batch = 8, .base_lr = 0.02f,
       .prune_fraction = 0.5f, .prune_iterations = 1,
       .finetune_epochs = 1, .light_qps = 300, .heavy_qps = 600, .ladder_lo_qps = 300,
       .ladder_hi_qps = 2400, .p99_limit_us = 50000},
      {.name = "serve-overhead", .arch = "tiny", .width = 0.25f, .image_size = 16,
       .train_per_class = 64, .test_per_class = 25, .base_epochs = 8, .setup_reps = 5,
       .prune_fraction = 0.5f, .prune_iterations = 1,
       .finetune_epochs = 4, .prune_reps = 15, .light_qps = 5000, .heavy_qps = 10000,
       .ladder_lo_qps = 5000, .ladder_hi_qps = 150000, .p99_limit_us = 10000},
      {.name = "prune", .arch = "resnet20", .width = 0.25f, .image_size = 16,
       .train_per_class = 64, .test_per_class = 50, .noise = 1.25f, .jitter = 1.0f,
       .data_seed = 11, .base_epochs = 4, .prune_fraction = 0.1f,
       .prune_iterations = 4, .finetune_epochs = 1, .light_qps = 1000, .heavy_qps = 2000,
       .ladder_lo_qps = 2000, .ladder_hi_qps = 16000, .p99_limit_us = 50000},
  };
  return all;
}

constexpr int kLibThreads = 2;  // training/scoring threads, pinned: numerics depend on it
constexpr int kWorkers = 2;     // server workers; + 1 generator thread
constexpr size_t kMaxBatch = 8;
constexpr int64_t kLingerUs = 200;
constexpr size_t kQueue = 256;
constexpr int kRounds = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "capr-perfbench: " << why
            << "\nusage: capr-perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--trace-out") o.trace_out = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

/// Tallies operations attempted and failed across the run.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool outputs_correct = true;

  void op(bool ok, bool wrong_output = false) {
    ++attempted;
    if (!ok) ++failed;
    if (wrong_output) outputs_correct = false;
  }
  /// A phase's requests, each shed, failed or wrong one a failure, plus
  /// one operation for the phase itself that fails when it ran late.
  void phase(const PhaseResult& p) {
    attempted += p.sent;
    failed += p.misses();
    if (p.mismatched > 0) outputs_correct = false;
    op(p.on_time());
  }
};

models::BuildConfig build_config(const Workload& w) {
  models::BuildConfig b;
  b.width_mult = w.width;
  b.input_size = w.image_size;
  return b;
}

serve::ServerConfig server_config() {
  serve::ServerConfig c;
  c.workers = kWorkers;
  c.max_batch = kMaxBatch;
  c.max_delay_us = kLingerUs;
  c.queue_capacity = kQueue;
  return c;
}

strategy::StrategyRunConfig prune_config(const Workload& w) {
  strategy::StrategyRunConfig rc;
  rc.limits.max_fraction_per_iter = w.prune_fraction;
  rc.max_iterations = w.prune_iterations;
  rc.max_accuracy_drop = 1.0f;  // a fixed number of iterations, always
  rc.finetune.epochs = w.finetune_epochs;
  rc.finetune.sgd.lr = 0.02f;
  return rc;
}

strategy::ClassAwareStrategyConfig strategy_config() {
  strategy::ClassAwareStrategyConfig c;
  c.mode = core::StrategyMode::kPercentage;
  return c;
}

struct Setup {
  data::SyntheticCifar data;
  std::map<std::string, Tensor> base_weights;
  std::vector<double> total_s, generate_s, train_s;
};

/// Data generation, model build and base training, setup_reps times.
Setup set_up_base(const Workload& w, Ledger& ledger, Trace& trace) {
  data::SyntheticCifarConfig dc;
  dc.image_size = w.image_size;
  dc.train_per_class = w.train_per_class;
  dc.test_per_class = w.test_per_class;
  dc.noise_stddev = w.noise;
  dc.jitter = w.jitter;
  dc.seed = w.data_seed;
  nn::TrainConfig tc;
  tc.epochs = w.base_epochs;
  tc.batch_size = w.base_batch;
  tc.sgd.lr = w.base_lr;
  Setup s;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    const int64_t span = trace.begin("setup.base");
    const int64_t gen = trace.begin("data.make_synthetic_cifar");
    data::SyntheticCifar d = data::make_synthetic_cifar(dc);
    trace.end(gen);
    s.generate_s.push_back(seconds_since(start));
    const Clock::time_point t = Clock::now();
    const int64_t tr = trace.begin("nn.train(base)");
    nn::Model model = models::make_model(w.arch, build_config(w));
    nn::train(model, d.train, tc);
    trace.end(tr);
    s.train_s.push_back(seconds_since(t));
    trace.end(span);
    s.total_s.push_back(seconds_since(start));
    std::map<std::string, Tensor> weights = model.state_dict();
    if (rep == 0) {
      s.data = std::move(d);
      s.base_weights = std::move(weights);
      ledger.op(true);
    } else {
      const bool same = same_weights(weights, s.base_weights);
      ledger.op(same, !same);
    }
  }
  return s;
}

nn::Model load_model(const Workload& w, const std::map<std::string, Tensor>& weights,
                     bool pruned) {
  nn::Model model = models::make_model(w.arch, build_config(w));
  if (pruned) {
    core::load_pruned_checkpoint(model, weights);
  } else {
    model.load_state_dict(weights);
  }
  return model;
}

RequestPool make_pool(const serve::InferenceSession& session, const data::Dataset& test,
                      uint64_t seed) {
  RequestPool pool;
  const Shape image = test.image_shape();
  const SerialRegionGuard serial;
  nn::InferScratch scratch;
  for (int64_t i = 0; i < test.size(); ++i) {
    const Tensor batch = test.gather({i}).images;
    pool.expected.push_back(session.run(batch, scratch).reshape({session.num_classes()}));
    pool.samples.push_back(batch.reshape(image));
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  pool.order.resize(1 << 16);
  for (uint32_t& k : pool.order) k = static_cast<uint32_t>(rng.uniform_int(test.size()));
  return pool;
}

/// Closed-loop warm-up: every worker sees full batches before timing.
void warm_up(serve::InferenceServer& server, const data::Dataset& test) {
  const Shape image = test.image_shape();
  std::vector<std::future<serve::InferResult>> futs;
  for (size_t i = 0; i < 4 * kWorkers * kMaxBatch; ++i) {
    const int64_t k = static_cast<int64_t>(i) % test.size();
    futs.push_back(server.submit(test.gather({k}).images.reshape(image)));
  }
  for (auto& f : futs) (void)f.get();
}

struct Serving {
  std::shared_ptr<const serve::InferenceSession> session;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<double> setup_s;
  RequestPool pool;
};

/// Rebuild + session (graph admission + compile, plan cache cleared) +
/// server start + warm-up, setup_reps times; keeps the last server.
Serving set_up_serving(const Workload& w, const std::map<std::string, Tensor>& pruned,
                       const data::Dataset& test) {
  Serving s;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    s.server.reset();
    s.session.reset();
    compile::global_plan_cache().clear();
    const Clock::time_point start = Clock::now();
    s.session = std::make_shared<const serve::InferenceSession>(load_model(w, pruned, true));
    s.server = std::make_unique<serve::InferenceServer>(s.session, server_config());
    warm_up(*s.server, test);
    s.setup_s.push_back(seconds_since(start));
  }
  return s;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
  return out + "]";
}

/// `late_phases` counts the phases merged into `p` that stayed late
/// after kMaxAttempts runs; the result counts each as a failure.
std::string phase_info(const std::string& name, const PhaseResult& p, int late_phases) {
  return json_string(name) + ": {\"rate_qps\": " + json_number(p.rate_qps) +
         ", \"sent\": " + std::to_string(p.sent) + ", \"served\": " +
         std::to_string(p.served) + ", \"shed\": " + std::to_string(p.shed) +
         ", \"failed\": " + std::to_string(p.failed) + ", \"timed_out\": " +
         std::to_string(p.stats.timed_out) + ", \"errored\": " +
         std::to_string(p.stats.errored) + ", \"mismatched\": " +
         std::to_string(p.mismatched) + ", \"windows\": " + std::to_string(p.windows()) +
         ", \"beyond_p99_per_window\": " + std::to_string(p.beyond(0.99)) +
         ", \"p90_us\": " + json_number(p.windowed_percentile_us(0.90)) +
         ", \"p99_us\": " + json_number(p.windowed_percentile_us(0.99)) +
         ", \"reruns\": " + std::to_string(p.reruns) + ", \"late_window_p99_us\": " +
         json_number(p.late_window_p99_us()) + ", \"late_p99_us\": " +
         json_number(p.late_p99_us()) + ", \"late_max_us\": " + json_number(p.late_max_us()) +
         ", \"late_phases\": " + std::to_string(late_phases) + "}";
}

double phase_seconds(double share, double seconds, double rate) {
  // At least one window of requests, so that 10 lie beyond its p99 rank.
  return std::max(share * seconds, static_cast<double>(PhaseResult::kWindow) / rate + 0.05);
}

struct Rates {
  PhaseResult light, heavy;
  int late_light = 0, late_heavy = 0;  // rounds still late after kMaxAttempts runs
};

/// The light and heavy phases interleaved over kRounds rounds sharing
/// `share` of the run, so that a slow stretch of the host lands in one
/// round of each rate rather than in all of one rate.
Rates run_rounds(serve::InferenceServer& server, const RequestPool& pool, const Workload& w,
                 double share, double seconds, size_t& offset, Ledger& ledger) {
  Rates r;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool heavy : {false, true}) {
      const double rate = heavy ? w.heavy_qps : w.light_qps;
      PhaseResult p = run_phase(server, pool, rate,
                                phase_seconds(share / 2 / kRounds, seconds, rate), offset, false);
      ledger.phase(p);
      if (!p.on_time()) ++(heavy ? r.late_heavy : r.late_light);
      PhaseResult& into = heavy ? r.heavy : r.light;
      if (round == 0) {
        into = std::move(p);
      } else {
        into.append(p);
      }
    }
  }
  return r;
}

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) found = &w;
  }
  if (found == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
  const Workload& w = *found;
  set_num_threads(kLibThreads);
  set_gemm_kernel(GemmKernel::kTiled);

  Trace trace(opt.trace);
  Ledger ledger;
  Metrics m;
  std::vector<std::string> info;

  // Set-up, then the untraced prune loop, prune_reps times from the
  // same base weights: each run must give the same pruned weights.
  const Setup base = set_up_base(w, ledger, trace);
  const strategy::StrategyRunConfig rc = prune_config(w);
  std::vector<double> prune_runs_s;
  std::optional<strategy::StrategyRunResult> pr;
  std::map<std::string, Tensor> pruned;
  nn::Model model;
  for (int rep = 0; rep < (opt.trace ? 1 : w.prune_reps); ++rep) {
    model = load_model(w, base.base_weights, false);
    strategy::ClassAwareStrategy strat(strategy_config());
    const Clock::time_point t = Clock::now();
    pr = strategy::run_strategy(model, strat, base.data.train, base.data.test, rc);
    prune_runs_s.push_back(seconds_since(t));
    std::map<std::string, Tensor> weights = model.state_dict();
    const bool same = rep == 0 || same_weights(weights, pruned);
    ledger.op(same && pr->filters_removed > 0, !same);
    if (rep == 0) pruned = std::move(weights);
  }
  const double prune_s = median(prune_runs_s);
  const double flops_per_image = static_cast<double>(flops::count(model).total_flops);
  info.push_back("\"prune\": {\"iterations\": " + std::to_string(pr->iterations_run) +
                 ", \"filters_removed\": " + std::to_string(pr->filters_removed) +
                 ", \"base_accuracy\": " + json_number(pr->original_accuracy) +
                 ", \"runs_s\": " + json_list(prune_runs_s) +
                 ", \"stop_reason\": " + json_string(pr->stop_reason) + "}");

  Serving sv = set_up_serving(w, pruned, base.data.test);
  sv.pool = make_pool(*sv.session, base.data.test, opt.seed);
  info.push_back("\"setup\": {\"base_s\": " + json_list(base.total_s) +
                 ", \"serving_s\": " + json_list(sv.setup_s) + "}");
  size_t offset = 0;

  if (!opt.trace) {
    const Rates rates = run_rounds(*sv.server, sv.pool, w, 1.0, opt.seconds, offset, ledger);
    const PhaseResult& light = rates.light;
    const PhaseResult& heavy = rates.heavy;
    m.set("p50_us.light", light.windowed_percentile_us(0.50), "us");
    m.set("p50_us.heavy", heavy.windowed_percentile_us(0.50), "us");
    m.set("p90_us.heavy", heavy.windowed_percentile_us(0.90), "us");
    m.set("setup_s", median(base.total_s) + median(sv.setup_s), "s");
    m.set("prune_s", prune_s, "s");
    m.set("accuracy", pr->final_accuracy, "ratio");
    m.set("flops_reduction", pr->report.flops_reduction(), "ratio");
    info.push_back(phase_info("light", light, rates.late_light));
    info.push_back(phase_info("heavy", heavy, rates.late_heavy));
  } else {
    // The traced replay must reproduce the untraced run's weights.
    nn::Model replay = load_model(w, base.base_weights, false);
    strategy::ClassAwareStrategy fresh(strategy_config());
    const int64_t images_per_score =
        strategy_config().importance.images_per_class * replay.num_classes;
    const LoopProfile lp = traced_prune_loop(replay, fresh, base.data.train, base.data.test, rc,
                                             images_per_score, trace);
    const bool same = same_weights(replay.state_dict(), pruned);
    ledger.op(same, !same);

    // Request path: untraced then traced light phase (tracing overhead),
    // traced heavy phase.
    const double phase_s = phase_seconds(0.2, opt.seconds, w.light_qps);
    const PhaseResult plain = run_phase(*sv.server, sv.pool, w.light_qps, phase_s, offset, false);
    const PhaseResult light = run_phase(*sv.server, sv.pool, w.light_qps, phase_s, offset, true);
    const PhaseResult heavy = run_phase(*sv.server, sv.pool, w.heavy_qps,
                                        phase_seconds(0.2, opt.seconds, w.heavy_qps), offset,
                                        true);
    // Goodput: the staircase takes the other 40% of the run. Requests
    // shed while probing above capacity are expected; wrong outputs, and
    // probes still late after their re-runs, fail.
    const double probe_s = opt.seconds / 100;
    const Goodput g = find_goodput(*sv.server, sv.pool, w.ladder_lo_qps, w.ladder_hi_qps,
                                   w.p99_limit_us, probe_s, 0.4 * opt.seconds, offset);
    ledger.attempted += g.sent + g.probes;
    ledger.failed += g.mismatched + g.late;
    if (g.mismatched > 0) ledger.outputs_correct = false;
    ledger.phase(plain);
    ledger.phase(light);
    ledger.phase(heavy);

    // Plan and kernels.
    Tensor batch8({8, sv.pool.samples[0].dim(0), sv.pool.samples[0].dim(1),
                   sv.pool.samples[0].dim(2)});
    const int64_t per = sv.pool.samples[0].numel();
    for (int64_t i = 0; i < 8; ++i) {
      const Tensor& s = sv.pool.samples[static_cast<size_t>(i) % sv.pool.samples.size()];
      std::copy(s.data(), s.data() + per, batch8.data() + i * per);
    }
    const PlanProfile pp = profile_plan(*sv.session, batch8, flops_per_image, trace);

    // Set-up layers: graph build, compile (no cache), warm.
    std::vector<double> graph_ms, compile_ms, warm_ms;
    const nn::Model served = load_model(w, pruned, true);
    for (int rep = 0; rep < 5; ++rep) {
      Clock::time_point t0 = Clock::now();
      const graph::ModuleGraph g = graph::ModuleGraph::build(served);
      graph_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      const compile::CompileResult cr = compile::compile(g);
      compile_ms.push_back(seconds_since(t0) * 1e3);
      if (!cr.plan) throw std::runtime_error("compile failed");
      nn::InferScratch scratch;
      t0 = Clock::now();
      sv.session->warm(scratch, static_cast<int64_t>(kMaxBatch));
      warm_ms.push_back(seconds_since(t0) * 1e3);
    }

    const uint64_t batches = light.stats.batches + heavy.stats.batches;
    const double light_batch_mean =
        light.stats.batches ? static_cast<double>(light.stats.batched_samples) /
                                  static_cast<double>(light.stats.batches)
                            : 1.0;
    const double server_p50 = nearest_rank(light.server_us, 0.50);
    m.set("serve.submit_us.p50", nearest_rank(light.submit_us, 0.50), "us");
    m.set("serve.submit_us.p99", nearest_rank(light.submit_us, 0.99), "us");
    m.set("serve.server_us.p50", server_p50, "us");
    m.set("serve.server_us.p99", nearest_rank(light.server_us, 0.99), "us");
    m.set("serve.overhead_us.p50", server_p50 - pp.run_us_at(light_batch_mean), "us");
    m.set("serve.batch_mean",
          batches ? static_cast<double>(light.stats.batched_samples +
                                        heavy.stats.batched_samples) /
                        static_cast<double>(batches)
                  : 0.0,
          "count");
    m.set("serve.batches", static_cast<double>(batches), "count");
    m.set("serve.goodput_qps", g.qps, "1/s");
    m.set("compile.run_us.b1", pp.run_us[1], "us");
    m.set("compile.run_us.b8", pp.run_us[8], "us");
    m.set("compile.gflops.b8", pp.flops_per_image * 8.0 / (pp.run_us[8] * 1e3), "GFLOP/s");
    m.set("compile.build_ms", median(compile_ms), "ms");
    m.set("compile.warm_ms", median(warm_ms), "ms");
    m.set("tensor.im2col_us.total", pp.im2col_us, "us");
    m.set("tensor.gemm_us.total", pp.gemm_us, "us");
    m.set("tensor.gemm_share", (pp.im2col_us + pp.gemm_us) / pp.run_us[8], "ratio");
    m.set("tensor.resolve_ns", pp.resolve_ns, "ns");
    m.set("tensor.resolve_calls.b1", static_cast<double>(pp.resolve_calls_b1), "count");
    m.set("graph.build_ms", median(graph_ms), "ms");
    m.set("strategy.score_s", lp.score_s, "s");
    m.set("strategy.score_img_per_s", static_cast<double>(lp.scored_images) / lp.score_s,
          "img/s");
    m.set("strategy.select_ms", lp.select_s * 1e3, "ms");
    m.set("analysis.certify_ms", lp.certify_s * 1e3, "ms");
    m.set("core.surgery_ms", lp.surgery_s * 1e3, "ms");
    m.set("core.filters_removed", static_cast<double>(lp.filters_removed), "count");
    m.set("flops.count_ms", lp.flops_s * 1e3, "ms");
    m.set("nn.finetune_s", lp.finetune_s, "s");
    m.set("nn.finetune_img_per_s", static_cast<double>(lp.finetune_images) / lp.finetune_s,
          "img/s");
    m.set("nn.evaluate_s", lp.evaluate_s, "s");
    m.set("nn.base_train_s", median(base.train_s), "s");
    m.set("data.generate_s", median(base.generate_s), "s");
    m.set("trace.traced_per_untraced.prune", lp.total_s / prune_s, "ratio");
    m.set("trace.traced_per_untraced.p50_light",
          light.windowed_percentile_us(0.50) / plain.windowed_percentile_us(0.50), "ratio");
    m.set("trace.prune_accounted", lp.layer_sum_s() / lp.total_s, "ratio");
    info.push_back(phase_info("light_untraced", plain, plain.on_time() ? 0 : 1));
    info.push_back(phase_info("light", light, light.on_time() ? 0 : 1));
    info.push_back(phase_info("heavy", heavy, heavy.on_time() ? 0 : 1));
    info.push_back("\"goodput\": {\"probes\": " + std::to_string(g.probes) +
                   ", \"reruns\": " + std::to_string(g.reruns) +
                   ", \"late_probes\": " + std::to_string(g.late) +
                   ", \"probe_s\": " + json_number(probe_s) +
                   ", \"staircase\": " + json_string(g.steps) +
                   ", \"sent\": " + std::to_string(g.sent) +
                   ", \"p99_limit_us\": " + json_number(w.p99_limit_us) + "}");
  }

  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  std::string info_json = "{\"workload\": " + json_string(w.name) +
                          ", \"seed\": " + std::to_string(opt.seed) +
                          ", \"host\": " + json_string(host) +
                          ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                          ", \"workers\": " + std::to_string(kWorkers) +
                          ", \"lib_threads\": " + std::to_string(num_threads()) +
                          ", \"trace\": " + (opt.trace ? "1" : "0");
  for (const std::string& s : info) info_json += ", " + s;
  info_json += "}";
  if (opt.trace && !opt.trace_out.empty()) trace.write(opt.trace_out, info_json);

  std::cout << "{\"perfbench_info\": " << info_json << "}\n";
  std::cout << "{\"correct\": " << (ledger.outputs_correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
            << ", \"metrics\": " << m.to_json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "capr-perfbench: " << e.what() << "\n";
    return 1;
  }
}
