// Static analyzer: shape inference, prune-plan certification, and
// checked-mode fail-fast. Every diagnostic code has at least one test
// that produces it, and every builder architecture must certify clean.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/checked.h"
#include "core/surgeon.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/depgraph.h"
#include "nn/trainer.h"

namespace capr::analysis {
namespace {

models::BuildConfig small_cfg(int64_t classes = 4) {
  models::BuildConfig cfg;
  cfg.num_classes = classes;
  cfg.input_size = 8;
  cfg.width_mult = 0.25f;
  return cfg;
}

nn::Model wide_tiny() {
  models::BuildConfig cfg = small_cfg();
  cfg.width_mult = 1.0f;  // conv0: 32 filters, conv1: 64 filters
  return models::make_tiny_cnn(cfg);
}

nn::Conv2d* find_conv(nn::Model& m, const std::string& name) {
  nn::Conv2d* found = nullptr;
  m.net->visit([&](nn::Layer& l) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(&l); c != nullptr && l.name() == name) found = c;
  });
  return found;
}

/// A layer kind the analyzer has never heard of.
class MysteryLayer final : public nn::Layer {
 public:
  Tensor forward(const Tensor& x, bool) override { return x; }
  Tensor backward(const Tensor& g) override { return g; }
  std::string kind() const override { return "mystery"; }
  Shape output_shape(const Shape& in) const override { return in; }
};

// ---------------------------------------------------------------------------
// Model certification across every architecture.

class ArchSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ArchSweep, BuilderModelCertifiesClean) {
  nn::Model m = models::make_model(GetParam(), small_cfg());
  const Report report = analyze_model(m);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const ShapeTrace trace = infer_shapes(m);
  ASSERT_TRUE(trace.report.ok());
  EXPECT_EQ(trace.output, (Shape{m.num_classes}));
  EXPECT_GT(trace.steps.size(), 3u);
}

TEST_P(ArchSweep, DerivedUnitsCertifyLegal) {
  nn::Model m = models::make_model(GetParam(), small_cfg());
  nn::annotate_model(m);
  const Report report = analyze_model(m);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(ArchSweep, StrategySelectionCertifiesUnderItsOwnConfig) {
  // A selection produced by the strategy must verify against the exact
  // config that produced it (scores -> strategy -> analyzer closure).
  nn::Model m = models::make_model(GetParam(), small_cfg());
  core::ImportanceResult scores;
  scores.num_classes = m.num_classes;
  for (size_t u = 0; u < m.units.size(); ++u) {
    core::UnitScores us;
    us.unit_index = u;
    us.unit_name = m.units[u].name;
    const auto f = static_cast<size_t>(m.units[u].conv->out_channels());
    for (size_t i = 0; i < f; ++i) {
      us.total.push_back(static_cast<float>((i * 7 + u * 3) % 11));
    }
    scores.units.push_back(std::move(us));
  }
  core::PruneStrategyConfig cfg;  // paper defaults: kBoth, 10% cap
  const auto selection = core::select_filters(scores, cfg);
  VerifyOptions opts;
  opts.strategy = &cfg;
  opts.scores = &scores;
  const Report report = analyze_plan(m, selection, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Archs, ArchSweep,
                         ::testing::Values("tiny", "vgg11", "vgg13", "vgg16", "vgg19",
                                           "resnet20", "resnet32", "resnet44", "resnet56"));

// ---------------------------------------------------------------------------
// Shape inference diagnostics.

TEST(ShapeInferenceTest, ReportsFirstIllFormedEdgeWithChannelCounts) {
  nn::Model m;
  m.input_shape = {3, 8, 8};
  m.net = std::make_unique<nn::Sequential>();
  m.net->add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false))->set_name("a");
  m.net->add(std::make_unique<nn::ReLU>());
  m.net->add(std::make_unique<nn::Conv2d>(8, 4, 3, 1, 1, false))->set_name("b");
  m.net->add(std::make_unique<nn::ReLU>());

  const ShapeTrace trace = infer_shapes(m);
  ASSERT_FALSE(trace.report.ok());
  EXPECT_TRUE(trace.report.has(DiagCode::kShapeMismatch));
  ASSERT_EQ(trace.report.diagnostics().size(), 1u);
  const Diagnostic& d = trace.report.diagnostics()[0];
  EXPECT_NE(d.layer.find("2"), std::string::npos) << d.format();
  EXPECT_NE(d.message.find("expects C_in=8, producer yields 4"), std::string::npos)
      << d.format();
  // The walk stops at the first bad edge: only conv 'a' and the ReLU
  // were certified.
  EXPECT_EQ(trace.steps.size(), 2u);
}

TEST(ShapeInferenceTest, LinearOnSpatialOutputIsRejected) {
  nn::Model m;
  m.input_shape = {1, 4, 4};
  m.net = std::make_unique<nn::Sequential>();
  m.net->add(std::make_unique<nn::Conv2d>(1, 2, 3, 1, 1, false));
  m.net->add(std::make_unique<nn::Linear>(32, 2));
  const ShapeTrace trace = infer_shapes(m);
  ASSERT_FALSE(trace.report.ok());
  EXPECT_TRUE(trace.report.has(DiagCode::kShapeMismatch));
  EXPECT_NE(trace.report.to_string().find("without Flatten"), std::string::npos);
}

TEST(ShapeInferenceTest, UnknownLayerKindIsRejected) {
  nn::Model m;
  m.input_shape = {1, 4, 4};
  m.net = std::make_unique<nn::Sequential>();
  m.net->add(std::make_unique<MysteryLayer>());
  const Report report = analyze_model(m);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kUnknownLayer));
  EXPECT_NE(report.to_string().find("mystery"), std::string::npos);
}

TEST(ShapeInferenceTest, ResidualAddWithUnequalBranchesIsRejected) {
  // Sabotage an identity-shortcut block so the main path loses a channel
  // in a way that stays internally consistent until the add.
  auto blk = std::make_unique<nn::BasicBlock>(4, 4, 1);
  blk->conv2().remove_out_channels({3});
  blk->bn2().remove_channels({3});
  nn::Model m;
  m.input_shape = {3, 8, 8};
  m.net = std::make_unique<nn::Sequential>();
  m.net->add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false));
  m.net->add(std::move(blk));
  const ShapeTrace trace = infer_shapes(m);
  ASSERT_FALSE(trace.report.ok());
  EXPECT_TRUE(trace.report.has(DiagCode::kResidualShape));
  EXPECT_NE(trace.report.to_string().find("residual add"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Unit metadata certification.

TEST(UnitCertificationTest, InconsistentConsumerIsFlagged) {
  nn::Model m = wide_tiny();
  // Point unit 0's consumer at a conv whose in_channels cannot match.
  m.units[0].consumers[0].conv = m.units[0].conv;
  const Report report = analyze_model(m);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kCouplingBroken));
}

TEST(UnitCertificationTest, ResidualCoupledProducerIsFlagged) {
  nn::Model m = models::make_resnet20(small_cfg());
  nn::Conv2d* stem = find_conv(m, "stem.conv");
  ASSERT_NE(stem, nullptr);
  // The stem conv feeds the first block's identity shortcut; no unit may
  // claim it as a prunable producer.
  m.units[0].conv = stem;
  const Report report = verify_units(m);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kResidualCoupled));
}

// ---------------------------------------------------------------------------
// Plan certification: one test per illegal-plan class.

TEST(PlanVerifierTest, UnitIndexOutOfRange) {
  nn::Model m = wide_tiny();
  const Report report = verify_plan(m, {{99, {0}}});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kUnitOutOfRange));
}

TEST(PlanVerifierTest, FilterIndexOutOfRange) {
  nn::Model m = wide_tiny();
  const int64_t live = m.units[0].conv->out_channels();
  Report report = verify_plan(m, {{0, {live}}});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kIndexOutOfRange));
  EXPECT_NE(report.to_string().find(std::to_string(live) + " live filters"),
            std::string::npos);
  report = verify_plan(m, {{0, {-1}}});
  EXPECT_TRUE(report.has(DiagCode::kIndexOutOfRange));
}

TEST(PlanVerifierTest, DuplicateFilterIndex) {
  nn::Model m = wide_tiny();
  Report report = verify_plan(m, {{0, {1, 1}}});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kDuplicateIndex));
  // Also across two selections naming the same unit.
  report = verify_plan(m, {{0, {1}}, {0, {1}}});
  EXPECT_TRUE(report.has(DiagCode::kDuplicateIndex));
}

TEST(PlanVerifierTest, EmptiedUnit) {
  nn::Model m = wide_tiny();
  std::vector<int64_t> all;
  for (int64_t f = 0; f < m.units[0].conv->out_channels(); ++f) all.push_back(f);
  const Report report = verify_plan(m, {{0, all}});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kEmptiedUnit));
}

TEST(PlanVerifierTest, ResidualCoupledUnitInPlan) {
  nn::Model m = models::make_resnet20(small_cfg());
  nn::Conv2d* stem = find_conv(m, "stem.conv");
  ASSERT_NE(stem, nullptr);
  m.units[0].conv = stem;
  const Report report = verify_plan(m, {{0, {0}}});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kResidualCoupled));
}

TEST(PlanVerifierTest, OverGlobalCap) {
  nn::Model m = wide_tiny();  // 96 filters total
  core::PruneStrategyConfig cfg;
  cfg.max_fraction_per_iter = 0.10f;  // cap: 9
  cfg.max_layer_fraction_per_iter = 1.0f;
  VerifyOptions opts;
  opts.strategy = &cfg;
  std::vector<int64_t> sixteen;
  for (int64_t f = 0; f < 16; ++f) sixteen.push_back(f);
  const Report report = verify_plan(m, {{0, sixteen}}, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kOverCap));
  EXPECT_FALSE(report.has(DiagCode::kLayerOverCap));
}

TEST(PlanVerifierTest, OverLayerCap) {
  nn::Model m = wide_tiny();
  core::PruneStrategyConfig cfg;
  cfg.max_fraction_per_iter = 1.0f;
  cfg.max_layer_fraction_per_iter = 0.5f;  // unit 0 cap: 16 of 32
  VerifyOptions opts;
  opts.strategy = &cfg;
  std::vector<int64_t> twenty;
  for (int64_t f = 0; f < 20; ++f) twenty.push_back(f);
  const Report report = verify_plan(m, {{0, twenty}}, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kLayerOverCap));
  EXPECT_FALSE(report.has(DiagCode::kOverCap));
}

TEST(PlanVerifierTest, BelowPerLayerFloor) {
  nn::Model m = wide_tiny();
  core::PruneStrategyConfig cfg;
  cfg.max_fraction_per_iter = 1.0f;
  cfg.max_layer_fraction_per_iter = 1.0f;
  cfg.min_filters_per_layer = 2;
  VerifyOptions opts;
  opts.strategy = &cfg;
  std::vector<int64_t> almost_all;  // leaves exactly 1 < floor 2
  for (int64_t f = 0; f < m.units[0].conv->out_channels() - 1; ++f) almost_all.push_back(f);
  const Report report = verify_plan(m, {{0, almost_all}}, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kBelowFloor));
  EXPECT_FALSE(report.has(DiagCode::kEmptiedUnit));
}

TEST(PlanVerifierTest, ThresholdSemanticsViolated) {
  nn::Model m = wide_tiny();
  core::ImportanceResult scores;
  scores.num_classes = 10;  // paper rule: threshold 0.3 * 10 = 3
  core::UnitScores us;
  us.unit_index = 0;
  us.total.assign(static_cast<size_t>(m.units[0].conv->out_channels()), 0.5f);
  us.total[0] = 5.0f;  // clearly above threshold
  scores.units.push_back(std::move(us));
  core::PruneStrategyConfig cfg;
  cfg.max_fraction_per_iter = 1.0f;
  cfg.max_layer_fraction_per_iter = 1.0f;
  VerifyOptions opts;
  opts.strategy = &cfg;
  opts.scores = &scores;
  const Report report = verify_plan(m, {{0, {0}}}, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.has(DiagCode::kThresholdViolated));
  // The same filter passes in percentage mode, where no threshold applies.
  cfg.mode = core::StrategyMode::kPercentage;
  EXPECT_TRUE(verify_plan(m, {{0, {0}}}, opts).ok());
}

TEST(PlanVerifierTest, LegalPlanIsClean) {
  nn::Model m = wide_tiny();
  const Report report = verify_plan(m, {{0, {1, 3, 5}}, {1, {2}}});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Checked mode: fail fast before any mutation.

TEST(CheckedModeTest, ApplySelectionRejectsIllegalPlanUntouched) {
  CheckedModeGuard guard;
  nn::Model m = wide_tiny();
  const int64_t before = m.units[0].conv->out_channels();
  EXPECT_THROW(core::apply_selection(m, {{0, {1, 1}}}), AnalysisError);
  EXPECT_EQ(m.units[0].conv->out_channels(), before);
  // Without checked mode the duplicate is silently deduplicated by the
  // surgeon (legacy behavior) — the analyzer is what makes it a hard error.
}

TEST(CheckedModeTest, ApplySelectionAcceptsLegalPlan) {
  CheckedModeGuard guard;
  nn::Model m = wide_tiny();
  const int64_t before = m.units[0].conv->out_channels();
  EXPECT_EQ(core::apply_selection(m, {{0, {1, 3}}}), 2);
  EXPECT_EQ(m.units[0].conv->out_channels(), before - 2);
  const Tensor x({2, 3, 8, 8}, 0.25f);
  EXPECT_NO_THROW(m.forward(x, false));
}

TEST(CheckedModeTest, TrainFailsFastOnIllFormedModel) {
  CheckedModeGuard guard;
  nn::Model m;
  m.arch = "broken";
  m.num_classes = 2;
  m.input_shape = {3, 8, 8};
  m.net = std::make_unique<nn::Sequential>();
  m.net->add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false))->set_name("a");
  m.net->add(std::make_unique<nn::Conv2d>(8, 4, 3, 1, 1, false))->set_name("b");

  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 2;
  dcfg.train_per_class = 2;
  dcfg.test_per_class = 2;
  dcfg.image_size = 8;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);
  nn::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 2;
  EXPECT_THROW(nn::train(m, dataset.train, tcfg), AnalysisError);
  EXPECT_THROW(nn::evaluate(m, dataset.test), AnalysisError);
}

TEST(CheckedModeTest, EvaluateAcceptsWellFormedModel) {
  CheckedModeGuard guard;
  nn::Model m = models::make_tiny_cnn(small_cfg(2));
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 2;
  dcfg.train_per_class = 2;
  dcfg.test_per_class = 2;
  dcfg.image_size = 8;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);
  EXPECT_NO_THROW(nn::evaluate(m, dataset.test));
}

TEST(CheckedModeTest, GuardRestoresUncheckedBehavior) {
  {
    CheckedModeGuard guard;
    EXPECT_TRUE(checked_mode_enabled());
  }
  EXPECT_FALSE(checked_mode_enabled());
  // Back to legacy semantics: the surgeon deduplicates silently.
  nn::Model m = wide_tiny();
  EXPECT_NO_THROW(core::apply_selection(m, {{0, {1}}}));
}

}  // namespace
}  // namespace capr::analysis
