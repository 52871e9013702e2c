// Cross-module integration tests: the full paper pipeline end-to-end,
// rollback semantics, and determinism of complete runs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/surgeon.h"
#include "data/synthetic.h"
#include "flops/flops.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

namespace capr {
namespace {

struct PipelineEnv {
  models::BuildConfig mcfg;
  data::SyntheticCifar data;

  PipelineEnv() {
    mcfg.num_classes = 4;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.5f;
    data::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 16;
    dcfg.test_per_class = 8;
    dcfg.image_size = 8;
    dcfg.noise_stddev = 0.15f;
    data = data::make_synthetic_cifar(dcfg);
  }

  nn::Model trained(const char* arch = "tiny") const {
    nn::Model m = models::make_model(arch, mcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.batch_size = 16;
    tcfg.sgd.lr = 0.05f;
    core::ModifiedLoss reg;
    nn::train(m, data.train, tcfg, &reg);
    return m;
  }
};

TEST(IntegrationTest, ModifiedLossTrainingReachesHighAccuracy) {
  PipelineEnv s;
  nn::Model m = s.trained();
  EXPECT_GT(nn::evaluate(m, s.data.test), 0.85f);
}

TEST(IntegrationTest, RollbackRestoresLastGoodModel) {
  PipelineEnv s;
  nn::Model m = s.trained();
  const float baseline = nn::evaluate(m, s.data.test);
  const int64_t params_before = m.parameter_count();

  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 4;
  scfg.importance.tau_mode = core::TauMode::kQuantile;
  scfg.mode = core::StrategyMode::kPercentage;
  strategy::StrategyRunConfig cfg;
  cfg.limits.max_fraction_per_iter = 0.5f;  // brutal, guarantees a drop
  cfg.finetune.epochs = 0;                  // no recovery allowed
  cfg.max_accuracy_drop = -1.0f;            // any outcome violates the bound
  cfg.max_iterations = 3;
  cfg.model_factory = [&s] { return models::make_model("tiny", s.mcfg); };

  strategy::ClassAwareStrategy strat(scfg);
  const strategy::StrategyRunResult res =
      strategy::run_strategy(m, strat, s.data.train, s.data.test, cfg);

  EXPECT_NE(res.stop_reason.find("rolled back"), std::string::npos);
  // The violating iteration was undone: shapes and accuracy match baseline.
  EXPECT_EQ(m.parameter_count(), params_before);
  EXPECT_NEAR(nn::evaluate(m, s.data.test), baseline, 1e-6f);
  EXPECT_NEAR(res.final_accuracy, baseline, 1e-6f);
  EXPECT_TRUE(res.iterations.empty());
  EXPECT_DOUBLE_EQ(res.report.pruning_ratio(), 0.0);
}

TEST(IntegrationTest, RollbackAfterSuccessfulIterationsKeepsThem) {
  PipelineEnv s;
  nn::Model m = s.trained();

  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 4;
  scfg.importance.tau_mode = core::TauMode::kQuantile;
  scfg.mode = core::StrategyMode::kPercentage;
  strategy::StrategyRunConfig cfg;
  cfg.limits.max_fraction_per_iter = 0.15f;
  cfg.finetune.epochs = 2;
  cfg.finetune.batch_size = 16;
  cfg.finetune.sgd.lr = 0.02f;
  cfg.recovery_rounds = 2;
  cfg.max_accuracy_drop = 0.3f;
  cfg.max_iterations = 4;
  cfg.model_factory = [&s] { return models::make_model("tiny", s.mcfg); };

  strategy::ClassAwareStrategy strat(scfg);
  const strategy::StrategyRunResult res =
      strategy::run_strategy(m, strat, s.data.train, s.data.test, cfg);
  // Whatever the stop reason, the reported model satisfies the bound.
  EXPECT_GE(res.final_accuracy, res.original_accuracy - cfg.max_accuracy_drop - 1e-6f);
  if (!res.iterations.empty()) {
    EXPECT_GT(res.report.pruning_ratio(), 0.0);
  }
}

TEST(IntegrationTest, PrunedModelForwardMatchesCostModel) {
  PipelineEnv s;
  nn::Model m = s.trained();
  core::remove_filters(m, 0, {0, 1, 2});
  const flops::ModelCost cost = flops::count(m);
  EXPECT_EQ(cost.total_params, m.parameter_count());
  // Forward still works on a real batch and is finite.
  const data::Batch b = s.data.test.slice(0, 4);
  const Tensor logits = m.forward(b.images, false);
  for (int64_t i = 0; i < logits.numel(); ++i) EXPECT_FALSE(std::isnan(logits[i]));
}

TEST(IntegrationTest, TwoArchitecturesShareOnePipeline) {
  PipelineEnv s;
  for (const char* arch : {"tiny", "resnet20"}) {
    nn::Model m = s.trained(arch);
    strategy::ClassAwareStrategyConfig scfg;
    scfg.importance.images_per_class = 3;
    scfg.importance.tau_mode = core::TauMode::kQuantile;
    scfg.mode = core::StrategyMode::kPercentage;
    strategy::StrategyRunConfig cfg;
    cfg.limits.max_fraction_per_iter = 0.2f;
    cfg.finetune.epochs = 1;
    cfg.finetune.batch_size = 16;
    cfg.recovery_rounds = 2;
    cfg.max_accuracy_drop = 0.5f;
    cfg.max_iterations = 2;
    strategy::ClassAwareStrategy strat(scfg);
    const auto res = strategy::run_strategy(m, strat, s.data.train, s.data.test, cfg);
    EXPECT_GT(res.report.pruning_ratio(), 0.0) << arch;
  }
}

}  // namespace
}  // namespace capr
