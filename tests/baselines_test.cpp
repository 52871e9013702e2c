#include <gtest/gtest.h>

#include "baselines/activation.h"
#include "baselines/magnitude.h"
#include "baselines/regularized.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/runner.h"
#include "test_util.h"

namespace capr::baselines {
namespace {

struct Fixture {
  nn::Model model;
  data::SyntheticCifar data;

  Fixture() {
    models::BuildConfig mcfg;
    mcfg.num_classes = 3;
    mcfg.input_size = 8;
    mcfg.width_mult = 0.5f;
    model = models::make_tiny_cnn(mcfg);
    data::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 3;
    dcfg.train_per_class = 12;
    dcfg.test_per_class = 6;
    dcfg.image_size = 8;
    data = data::make_synthetic_cifar(dcfg);
  }

  /// Scores through the PruneStrategy interface on the model's graph.
  strategy::ScoreSet score(strategy::PruneStrategy& strat) {
    const graph::ModuleGraph g = graph::ModuleGraph::build(model);
    return strat.score({model, g, data.train});
  }
};

TEST(BalancedSampleTest, OnePerClass) {
  Fixture f;
  const data::Batch b = data::balanced_sample(f.data.train, 2, 1);
  EXPECT_EQ(b.size(), 6);
  std::vector<int64_t> counts(3, 0);
  for (int64_t lbl : b.labels) ++counts[static_cast<size_t>(lbl)];
  for (int64_t c : counts) EXPECT_EQ(c, 2);
  EXPECT_THROW(data::balanced_sample(f.data.train, 0, 1), std::invalid_argument);
}

TEST(MatrixRankTest, KnownRanks) {
  const float full[4] = {1, 0, 0, 1};
  EXPECT_EQ(matrix_rank(full, 2, 2, 1e-5f), 2);
  const float rank1[4] = {1, 2, 2, 4};
  EXPECT_EQ(matrix_rank(rank1, 2, 2, 1e-5f), 1);
  const float zero[4] = {0, 0, 0, 0};
  EXPECT_EQ(matrix_rank(zero, 2, 2, 1e-5f), 0);
  const float rect[6] = {1, 0, 2, 0, 1, 3};  // 2x3, rank 2
  EXPECT_EQ(matrix_rank(rect, 2, 3, 1e-5f), 2);
}

TEST(L1StrategyTest, RanksByMagnitude) {
  Fixture f;
  nn::Conv2d* conv = f.model.units[0].conv;
  conv->weight().value.fill(0.0f);
  const int64_t fsz = conv->in_channels() * conv->kernel() * conv->kernel();
  // Filter k gets magnitude k+1.
  for (int64_t k = 0; k < conv->out_channels(); ++k) {
    conv->weight().value[k * fsz] = static_cast<float>(k + 1);
  }
  L1Strategy l1;
  const std::vector<float> scores = f.score(l1).groups.at(0).total;
  for (int64_t k = 0; k + 1 < conv->out_channels(); ++k) {
    EXPECT_LT(scores[static_cast<size_t>(k)], scores[static_cast<size_t>(k + 1)]);
  }
}

TEST(BaselineShapesTest, AllBaselinesReturnPerFilterScores) {
  Fixture f;
  L1Strategy l1;
  L2Strategy l2;
  DepGraphStrategy dg_full(true), dg_no(false);
  SSSStrategy sss;
  OrthConvStrategy orth;
  TPPStrategy tpp(2);
  APoZStrategy apoz(2);
  HRankStrategy hrank(2);
  TaylorFOStrategy taylor(2);
  for (strategy::PruneStrategy* c : std::initializer_list<strategy::PruneStrategy*>{
           &l1, &l2, &dg_full, &dg_no, &sss, &orth, &tpp, &apoz, &hrank, &taylor}) {
    const strategy::ScoreSet scores = f.score(*c);
    EXPECT_EQ(scores.num_classes, 3) << c->name();
    EXPECT_EQ(c->mode(), core::StrategyMode::kPercentage) << c->name();
    // Every unit of the tiny CNN is admitted by its graph, in unit order.
    ASSERT_EQ(scores.groups.size(), f.model.units.size()) << c->name();
    for (size_t u = 0; u < scores.groups.size(); ++u) {
      EXPECT_EQ(scores.groups[u].unit_index, u) << c->name();
      EXPECT_EQ(scores.groups[u].total.size(),
                static_cast<size_t>(f.model.units[u].conv->out_channels()))
          << c->name();
      for (float s : scores.groups[u].total) {
        EXPECT_GE(s, 0.0f) << c->name();
        EXPECT_FALSE(std::isnan(s)) << c->name();
      }
    }
  }
}

TEST(DepGraphTest, FullGroupingCountsConsumerNorms) {
  Fixture f;
  // Zero everything, then give filter 0 weight only in the CONSUMER's
  // in-channel slice: no-grouping scores it 0, full-grouping > 0.
  f.model.units[0].conv->weight().value.fill(0.0f);
  f.model.units[0].bn->gamma().value.fill(0.0f);
  f.model.units[0].bn->beta().value.fill(0.0f);
  nn::Conv2d* consumer = f.model.units[0].consumers[0].conv;
  consumer->weight().value.fill(0.0f);
  const int64_t kk = consumer->kernel() * consumer->kernel();
  consumer->weight().value[0 * consumer->in_channels() * kk + 0 * kk] = 2.0f;

  DepGraphStrategy no_group(false), full_group(true);
  EXPECT_FLOAT_EQ(f.score(no_group).groups.at(0).total[0], 0.0f);
  EXPECT_GT(f.score(full_group).groups.at(0).total[0], 1.0f);
}

TEST(SSSStrategyTest, ScoresAreGammaMagnitudes) {
  Fixture f;
  f.model.units[0].bn->gamma().value[0] = -0.25f;
  f.model.units[0].bn->gamma().value[1] = 0.75f;
  SSSStrategy sss;
  const std::vector<float> scores = f.score(sss).groups.at(0).total;
  EXPECT_FLOAT_EQ(scores[0], 0.25f);
  EXPECT_FLOAT_EQ(scores[1], 0.75f);
}

TEST(SSSStrategyTest, RegularizerSparsifiesGammas) {
  Fixture f;
  SSSStrategy sss(0.05f);
  nn::Regularizer* reg = sss.train_regularizer();
  ASSERT_NE(reg, nullptr);
  for (nn::Param* p : f.model.params()) p->zero_grad();
  const float penalty = reg->apply(f.model);
  EXPECT_GT(penalty, 0.0f);  // default gammas are 1.0
  // Gradient pushes positive gammas down.
  EXPECT_GT(f.model.units[0].bn->gamma().grad[0], 0.0f);
}

TEST(APoZTest, DeadChannelGetsLowScore) {
  Fixture f;
  // Kill filter 0 of conv0: its post-ReLU map is all zeros -> score ~0.
  nn::PrunableUnit& u = f.model.units[0];
  const int64_t fsz = u.conv->in_channels() * u.conv->kernel() * u.conv->kernel();
  for (int64_t i = 0; i < fsz; ++i) u.conv->weight().value[i] = 0.0f;
  u.bn->gamma().value[0] = 0.0f;
  u.bn->beta().value[0] = -1.0f;  // pushes pre-ReLU negative
  APoZStrategy apoz(3);
  const std::vector<float> scores = f.score(apoz).groups.at(0).total;
  EXPECT_NEAR(scores[0], 0.0f, 1e-5f);
  // Some other channel fires on real data.
  float best = 0.0f;
  for (float s : scores) best = std::max(best, s);
  EXPECT_GT(best, 0.1f);
}

TEST(HRankTest, ConstantMapHasRankOne) {
  Fixture f;
  HRankStrategy hrank(2);
  const std::vector<float> scores = f.score(hrank).groups.at(0).total;
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 8.0f);  // bounded by the feature-map side
  }
}

TEST(BaselineRunTest, EndToEndWithL1) {
  Fixture f;
  nn::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 12;
  tcfg.sgd.lr = 0.05f;
  nn::train(f.model, f.data.train, tcfg);

  strategy::StrategyRunConfig cfg;
  cfg.limits.max_fraction_per_iter = 0.2f;
  cfg.max_iterations = 3;
  cfg.max_accuracy_drop = 0.3f;
  cfg.finetune.epochs = 2;
  cfg.finetune.batch_size = 12;
  cfg.finetune.sgd.lr = 0.02f;
  L1Strategy l1;
  const strategy::StrategyRunResult res =
      strategy::run_strategy(f.model, l1, f.data.train, f.data.test, cfg);
  EXPECT_EQ(res.method, "L1");
  EXPECT_GT(res.report.pruning_ratio(), 0.0);
  EXPECT_GT(res.iterations_run, 0);
  EXPECT_FALSE(res.stop_reason.empty());
}

TEST(BaselineRunTest, RejectsBadFraction) {
  Fixture f;
  strategy::StrategyRunConfig cfg;
  cfg.limits.max_fraction_per_iter = 0.0f;
  L1Strategy l1;
  EXPECT_THROW(strategy::run_strategy(f.model, l1, f.data.train, f.data.test, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace capr::baselines
