#include <gtest/gtest.h>

#include <cstdlib>

#include "report/experiment.h"
#include "report/table.h"

namespace capr::report {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x", "y"});
  const std::string out = t.render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, RejectsBadRows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FormattersTest, Pct) {
  EXPECT_EQ(pct(0.956), "95.6%");
  EXPECT_EQ(pct(1.0, 0), "100%");
  EXPECT_EQ(pct(-0.0082), "-0.8%");
}

TEST(FormattersTest, HumanCount) {
  EXPECT_EQ(human_count(999), "999");
  EXPECT_EQ(human_count(1500), "1.5K");
  EXPECT_EQ(human_count(2'500'000), "2.50M");
  EXPECT_EQ(human_count(8'200'000'000), "8.20G");
}

TEST(FormattersTest, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(HistogramTest, BucketsAndBars) {
  const std::vector<float> values{0.1f, 0.1f, 0.2f, 5.0f, 9.9f};
  const std::string out = histogram(values, 10, 10.0f, 20);
  // Ten lines, the first bucket holds three values and has the longest bar.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 10);
  EXPECT_NE(out.find("    3  ####################"), std::string::npos);
}

TEST(HistogramTest, ClampsOutOfRange) {
  // A value above max_score lands in the last bucket instead of crashing.
  const std::string out = histogram({12.0f}, 4, 10.0f, 10);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(HistogramTest, RejectsBadArgs) {
  EXPECT_THROW(histogram({1.0f}, 0, 10.0f), std::invalid_argument);
  EXPECT_THROW(histogram({1.0f}, 4, 0.0f), std::invalid_argument);
}

TEST(ScaleTest, EnvSelection) {
  unsetenv("CAPR_SCALE");
  EXPECT_EQ(scale_from_env().name, "micro");
  setenv("CAPR_SCALE", "small", 1);
  const ExperimentScale small = scale_from_env();
  EXPECT_EQ(small.name, "small");
  EXPECT_GT(small.image_size, scale_from_env().image_size - 100);  // parses
  setenv("CAPR_SCALE", "full", 1);
  const ExperimentScale full = scale_from_env();
  EXPECT_EQ(full.name, "full");
  EXPECT_EQ(full.image_size, 32);
  EXPECT_EQ(full.width_mult, 1.0f);
  EXPECT_EQ(full.tau_mode, core::TauMode::kAbsolute);
  setenv("CAPR_SCALE", "bogus", 1);
  EXPECT_EQ(scale_from_env().name, "micro");  // falls back
  unsetenv("CAPR_SCALE");
}

TEST(ScaleTest, PrunerConfigMirrorsScale) {
  ExperimentScale s;
  s.images_per_class_scoring = 7;
  s.max_fraction_per_iter = 0.33f;
  s.max_accuracy_drop = 0.11f;
  s.max_iterations = 13;
  s.finetune_epochs = 3;
  s.recovery_rounds = 4;
  const PrunerConfig cfg = pruner_config(s);
  EXPECT_EQ(cfg.strategy.importance.images_per_class, 7);
  EXPECT_FLOAT_EQ(cfg.run.limits.max_fraction_per_iter, 0.33f);
  EXPECT_FLOAT_EQ(cfg.run.max_accuracy_drop, 0.11f);
  EXPECT_EQ(cfg.run.max_iterations, 13);
  EXPECT_EQ(cfg.run.finetune.epochs, 3);
  EXPECT_EQ(cfg.run.recovery_rounds, 4);
  EXPECT_FALSE(cfg.run.model_factory);
}

TEST(WorkbenchTest, FactoryRebuildsMatchingShapes) {
  setenv("CAPR_CACHE", "0", 1);
  ExperimentScale s;  // micro
  s.pretrain_epochs = 1;
  Workbench wb = prepare_workbench("tiny", 4, s, 0.0f, 0.0f, 3);
  nn::Model fresh = wb.factory();
  // Same architecture: state dict loads without shape errors.
  EXPECT_NO_THROW(fresh.load_state_dict(wb.model.state_dict()));
  unsetenv("CAPR_CACHE");
}

TEST(WorkbenchTest, ResnetGetsWiderChannelsAtReducedScale) {
  setenv("CAPR_CACHE", "0", 1);
  ExperimentScale s;
  s.pretrain_epochs = 1;
  s.train_per_class_c10 = 4;
  s.test_per_class_c10 = 2;
  Workbench vgg = prepare_workbench("vgg16", 10, s, 0.0f, 0.0f, 3);
  Workbench rn = prepare_workbench("resnet20", 10, s, 0.0f, 0.0f, 3);
  // VGG conv1 base 64 at 0.25 -> 16; ResNet stem base 16 at 0.5 -> 8.
  EXPECT_EQ(vgg.model.units[0].conv->out_channels(), 16);
  EXPECT_EQ(rn.model.units[0].conv->out_channels(), 8);
  unsetenv("CAPR_CACHE");
}

}  // namespace
}  // namespace capr::report
