// End-to-end tests of the class-aware pruning framework (Fig. 5 loop)
// through strategy::run_strategy, including the recovery rounds and
// rollback the driver carries.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <tuple>

#include "core/importance.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

namespace capr::strategy {
namespace {

struct Pipeline {
  models::BuildConfig mcfg;
  nn::Model model;
  data::SyntheticCifar data;

  explicit Pipeline(const char* arch = "tiny") {
    mcfg.num_classes = 4;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.5f;
    model = models::make_model(arch, mcfg);

    data::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 16;
    dcfg.test_per_class = 8;
    dcfg.image_size = 8;
    dcfg.noise_stddev = 0.1f;
    data = data::make_synthetic_cifar(dcfg);

    // Pre-train with the modified cost, as the framework prescribes.
    nn::TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.batch_size = 16;
    tcfg.sgd.lr = 0.05f;
    core::ModifiedLoss reg;
    nn::train(model, data.train, tcfg, &reg);
  }

  ClassAwareStrategyConfig strategy_config() const {
    ClassAwareStrategyConfig cfg;
    cfg.importance.images_per_class = 4;
    return cfg;
  }

  StrategyRunConfig run_config() const {
    StrategyRunConfig cfg;
    cfg.limits.min_filters_per_layer = 2;
    cfg.limits.max_fraction_per_iter = 0.2f;
    cfg.finetune.epochs = 3;
    cfg.finetune.batch_size = 16;
    cfg.finetune.sgd.lr = 0.02f;
    cfg.max_accuracy_drop = 0.25f;
    cfg.recovery_rounds = 2;
    cfg.max_iterations = 4;
    return cfg;
  }

  StrategyRunResult run(const StrategyRunConfig& rcfg) {
    return run(strategy_config(), rcfg);
  }
  StrategyRunResult run(const ClassAwareStrategyConfig& scfg, const StrategyRunConfig& rcfg) {
    ClassAwareStrategy strat(scfg);
    return run_strategy(model, strat, data.train, data.test, rcfg);
  }
};

void expect_bitwise_equal(const std::map<std::string, Tensor>& a,
                          const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, ta] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    ASSERT_EQ(ta.shape(), it->second.shape()) << key;
    for (int64_t i = 0; i < ta.numel(); ++i) ASSERT_EQ(ta[i], it->second[i]) << key << " " << i;
  }
}

bool bitwise_equal(const std::map<std::string, Tensor>& a,
                   const std::map<std::string, Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, ta] : a) {
    const auto it = b.find(key);
    if (it == b.end() || ta.shape() != it->second.shape()) return false;
    for (int64_t i = 0; i < ta.numel(); ++i) {
      if (ta[i] != it->second[i]) return false;
    }
  }
  return true;
}

TEST(ClassAwarePruningTest, PrunesAndReportsOnTinyCnn) {
  Pipeline p;
  core::ImportanceEvaluator evaluator(p.strategy_config().importance);
  const core::ImportanceResult before = evaluator.evaluate(p.model, p.data.train);
  const StrategyRunResult res = p.run(p.run_config());

  EXPECT_EQ(res.method, "class-aware");
  EXPECT_GT(res.original_accuracy, 0.5f);
  EXPECT_FALSE(res.iterations.empty());
  EXPECT_EQ(res.iterations_run, static_cast<int>(res.iterations.size()));
  EXPECT_GT(res.report.pruning_ratio(), 0.0);
  EXPECT_GT(res.report.flops_reduction(), 0.0);
  EXPECT_LT(res.report.params_after, res.report.params_before);
  EXPECT_FALSE(res.stop_reason.empty());
  // The figure benches score the model themselves before and after.
  EXPECT_FALSE(before.units.empty());
  EXPECT_FALSE(evaluator.evaluate(p.model, p.data.train).units.empty());
}

TEST(ClassAwarePruningTest, IterationRecordsAreMonotone) {
  Pipeline p;
  const StrategyRunResult res = p.run(p.run_config());
  int64_t last_params = res.report.params_before;
  int64_t last_filters = std::numeric_limits<int64_t>::max();
  int64_t removed = 0;
  for (const IterationRecord& r : res.iterations) {
    EXPECT_GT(r.filters_removed, 0);
    EXPECT_LT(r.params, last_params);
    EXPECT_LT(r.filters_remaining, last_filters);
    last_params = r.params;
    last_filters = r.filters_remaining;
    removed += r.filters_removed;
  }
  EXPECT_EQ(res.filters_removed, removed);
}

TEST(ClassAwarePruningTest, ModelStillFunctionalAfterRun) {
  Pipeline p;
  p.run(p.run_config());
  const Tensor x = p.data.test.slice(0, 4).images;
  const Tensor logits = p.model.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{4, 4}));
  // All prunable units still satisfy their metadata invariants.
  for (const nn::PrunableUnit& u : p.model.units) {
    EXPECT_GE(u.conv->out_channels(), 2);
    if (u.bn != nullptr) {
      EXPECT_EQ(u.bn->channels(), u.conv->out_channels());
    }
  }
}

TEST(ClassAwarePruningTest, StrictDropBoundStopsEarly) {
  Pipeline p;
  StrategyRunConfig cfg = p.run_config();
  cfg.max_accuracy_drop = -1.0f;  // any drop (even negative) exceeds this
  const StrategyRunResult res = p.run(cfg);
  EXPECT_LE(res.iterations.size(), 1u);
  EXPECT_EQ(res.stop_reason, "accuracy drop not recovered by fine-tuning");
}

TEST(ClassAwarePruningTest, WorksOnResnetWithBlockConstraint) {
  Pipeline p("resnet20");
  StrategyRunConfig cfg = p.run_config();
  cfg.max_iterations = 2;
  // Percentage mode guarantees removals even when every filter clears the
  // score threshold (common on well-trained tiny nets); this test checks
  // the residual-block surgery constraint, not the threshold rule.
  ClassAwareStrategyConfig scfg = p.strategy_config();
  scfg.mode = core::StrategyMode::kPercentage;
  const StrategyRunResult res = p.run(scfg, cfg);
  EXPECT_GT(res.report.pruning_ratio(), 0.0);
  // Residual adds still legal: conv2 out-channels unchanged per block.
  const Tensor x = p.data.test.slice(0, 2).images;
  EXPECT_NO_THROW(p.model.forward(x, false));
}

TEST(ClassAwarePruningTest, DeterministicEndToEnd) {
  auto run_once = [] {
    Pipeline p;
    const StrategyRunResult res = p.run(p.run_config());
    return std::tuple{res.final_accuracy, res.report.params_after, res.iterations.size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// A forced drop (no bound can hold) exercises the two behaviours the
// driver adds on a violation: recovery fine-tunes change the weights,
// and with a model factory the iteration is rolled back to the bitwise
// pre-iteration model without being recorded or observed.
TEST(ClassAwarePruningTest, RecoveryRoundsAndRollbackOnForcedDrop) {
  Pipeline base;
  const std::map<std::string, Tensor> trained = base.model.state_dict();
  StrategyRunConfig cfg = base.run_config();
  cfg.max_accuracy_drop = -1.0f;
  cfg.max_iterations = 3;
  ASSERT_GE(cfg.finetune.epochs, 1);

  const auto fresh = [&] {
    nn::Model m = models::make_model("tiny", base.mcfg);
    m.load_state_dict(trained);
    return m;
  };
  const auto pruned_weights = [&](int recovery_rounds) {
    base.model = fresh();
    StrategyRunConfig c = cfg;
    c.recovery_rounds = recovery_rounds;
    const StrategyRunResult res = base.run(c);
    EXPECT_EQ(res.stop_reason, "accuracy drop not recovered by fine-tuning");
    EXPECT_EQ(res.iterations.size(), 1u);
    return base.model.state_dict();
  };
  EXPECT_FALSE(bitwise_equal(pruned_weights(1), pruned_weights(0)));

  base.model = fresh();
  cfg.recovery_rounds = 1;
  cfg.model_factory = [&] { return models::make_model("tiny", base.mcfg); };
  int observed = 0;
  cfg.on_iteration = [&](const IterationRecord&) { ++observed; };
  const StrategyRunResult res = base.run(cfg);
  EXPECT_EQ(res.stop_reason, "accuracy drop not recovered by fine-tuning (iteration rolled back)");
  expect_bitwise_equal(base.model.state_dict(), trained);
  EXPECT_EQ(observed, 0);
  EXPECT_TRUE(res.iterations.empty());
  EXPECT_EQ(res.iterations_run, 0);
  EXPECT_EQ(res.filters_removed, 0);
  EXPECT_EQ(res.final_accuracy, res.original_accuracy);
}

}  // namespace
}  // namespace capr::strategy
