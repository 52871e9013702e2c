// Strategy-interface refactor guarantees:
//  - the class-aware path through strategy::ClassAwareStrategy is
//    bitwise-identical (selections AND pruned weights) to the legacy
//    core::select_filters path on all nine architectures;
//  - the shared engine reproduces the original baseline driver's
//    lowest-fraction selection semantics in percentage mode;
//  - residual-constrained groups are filtered out of every strategy's
//    view before selection;
//  - every tournament entrant's plan passes analysis::require_ok.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/importance.h"
#include "core/strategy.h"
#include "core/surgeon.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "models/builders.h"
#include "strategy/class_aware.h"
#include "strategy/competitors.h"
#include "strategy/runner.h"
#include "tournament/tournament.h"

namespace capr::strategy {
namespace {

const char* kAllArchs[] = {"vgg11",    "vgg13",    "vgg16",    "vgg19", "resnet20",
                           "resnet32", "resnet44", "resnet56", "tiny"};

data::SyntheticCifar tiny_data(int64_t num_classes, int64_t image_size) {
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = num_classes;
  dcfg.train_per_class = 6;
  dcfg.test_per_class = 3;
  dcfg.image_size = image_size;
  return data::make_synthetic_cifar(dcfg);
}

void expect_same_selection(const std::vector<core::UnitSelection>& a,
                           const std::vector<core::UnitSelection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].unit_index, b[i].unit_index);
    EXPECT_EQ(a[i].filters, b[i].filters);
  }
}

void expect_bitwise_equal(const std::map<std::string, Tensor>& a,
                          const std::map<std::string, Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, ta] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    const Tensor& tb = it->second;
    ASSERT_EQ(ta.shape(), tb.shape()) << key;
    for (int64_t i = 0; i < ta.numel(); ++i) {
      ASSERT_EQ(ta[i], tb[i]) << key << " element " << i;
    }
  }
}

// The tentpole's parity proof: on every architecture, the class-aware
// method through the new graph-driven interface selects the same
// filters and produces bitwise-identical pruned weights as the
// pre-refactor select_filters path.
TEST(StrategyParityTest, ClassAwareBitwiseIdenticalOnAllArchs) {
  const data::SyntheticCifar data = tiny_data(10, 16);
  core::ImportanceConfig icfg;
  icfg.images_per_class = 2;
  icfg.tau_mode = core::TauMode::kQuantile;

  for (const char* arch : kAllArchs) {
    SCOPED_TRACE(arch);
    models::BuildConfig mcfg;  // default: 10 classes, 16px
    nn::Model legacy = models::make_model(arch, mcfg);
    nn::Model graph_driven = models::make_model(arch, mcfg);

    // Legacy path: evaluator + select_filters over the flat result.
    core::ImportanceEvaluator evaluator(icfg);
    const core::ImportanceResult scores = evaluator.evaluate(legacy, data.train);
    core::PruneStrategyConfig scfg;
    scfg.mode = core::StrategyMode::kPercentage;  // always selects; exercises surgery
    const auto legacy_sel = core::select_filters(scores, scfg);
    ASSERT_FALSE(legacy_sel.empty());

    // Graph-driven path: same scorer behind the strategy interface.
    ClassAwareStrategyConfig ccfg;
    ccfg.importance = icfg;
    ccfg.mode = core::StrategyMode::kPercentage;
    ClassAwareStrategy strat(ccfg);
    const graph::ModuleGraph g = graph::ModuleGraph::build(graph_driven);
    ASSERT_TRUE(g.ok());
    const StrategyContext ctx{graph_driven, g, data.train};
    const auto new_sel = select(strat.score(ctx), strat, core::SelectionLimits{});

    expect_same_selection(legacy_sel, new_sel);

    // And the surgery produces bitwise-identical weights.
    core::apply_selection(legacy, legacy_sel);
    core::apply_selection(graph_driven, new_sel);
    expect_bitwise_equal(legacy.state_dict(), graph_driven.state_dict());

    // The threshold-gated paper mode agrees as well (selection may be
    // smaller or empty; it must be the SAME).
    core::PruneStrategyConfig both = scfg;
    both.mode = core::StrategyMode::kBoth;
    ClassAwareStrategyConfig cboth = ccfg;
    cboth.mode = core::StrategyMode::kBoth;
    ClassAwareStrategy strat_both(cboth);
    // Models were pruned above; rebuild for a clean comparison.
    nn::Model m1 = models::make_model(arch, mcfg);
    nn::Model m2 = models::make_model(arch, mcfg);
    const auto sel1 = core::select_filters(evaluator.evaluate(m1, data.train), both);
    const graph::ModuleGraph g2 = graph::ModuleGraph::build(m2);
    const StrategyContext ctx2{m2, g2, data.train};
    const auto sel2 = select(strat_both.score(ctx2), strat_both, core::SelectionLimits{});
    expect_same_selection(sel1, sel2);
  }
}

// The engine in percentage mode reproduces the original baseline
// driver's select_lowest semantics: lowest-scoring global fraction, per-layer
// floor and cap, grouped per unit with ascending filter indices.
TEST(StrategyEngineTest, PercentageModeMatchesLegacyBaselineSemantics) {
  std::vector<core::ScoredUnit> units;
  units.push_back({0, {0.9f, 0.1f, 0.8f, 0.2f, 0.7f, 0.3f, 0.6f, 0.4f}});
  units.push_back({1, {0.05f, 0.95f, 0.85f, 0.15f, 0.75f, 0.25f, 0.65f, 0.35f}});
  core::PruneStrategyConfig cfg;
  cfg.mode = core::StrategyMode::kPercentage;
  cfg.max_fraction_per_iter = 0.25f;  // 4 of 16
  cfg.min_filters_per_layer = 2;
  const auto sel = core::select_scored(units, cfg, 10);
  // Globally lowest four: 0.05 (u1 f0), 0.1 (u0 f1), 0.15 (u1 f3), 0.2 (u0 f3).
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0].unit_index, 0u);
  EXPECT_EQ(sel[0].filters, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(sel[1].unit_index, 1u);
  EXPECT_EQ(sel[1].filters, (std::vector<int64_t>{0, 3}));
}

// A residual-constrained group never reaches a strategy's score set,
// even when someone hand-registers it as a model unit (the old
// baseline driver would happily have pruned it).
TEST(StrategyFilterTest, ResidualConstrainedGroupsAreExcluded) {
  models::BuildConfig mcfg;
  nn::Model model = models::make_resnet20(mcfg);
  const data::SyntheticCifar data = tiny_data(10, 16);
  const graph::ModuleGraph g = graph::ModuleGraph::build(model);
  ASSERT_TRUE(g.ok());

  // Builders annotate exactly the graph's prunable groups.
  const StrategyContext ctx{model, g, data.train};
  EXPECT_EQ(prunable_groups(ctx).size(), model.units.size());

  // Hand-register a constrained group (conv2 of a block) as a unit.
  const graph::CouplingGroup* constrained = nullptr;
  for (const graph::CouplingGroup& cg : g.groups()) {
    if (cg.residual_constrained) {
      constrained = &cg;
      break;
    }
  }
  ASSERT_NE(constrained, nullptr);
  model.units.push_back(g.materialize(*constrained));
  const size_t poisoned = model.units.size() - 1;

  const graph::ModuleGraph g2 = graph::ModuleGraph::build(model);
  const StrategyContext ctx2{model, g2, data.train};
  const auto groups = prunable_groups(ctx2);
  EXPECT_EQ(groups.size(), poisoned);  // everything but the constrained one
  for (const PrunableGroup& pg : groups) {
    EXPECT_NE(pg.unit_index, poisoned);
  }

  // End to end: dependency-aware scores + select never touch it.
  DependencyAwareStrategy strat;
  const auto sel = select(strat.score(ctx2), strat, core::SelectionLimits{});
  ASSERT_FALSE(sel.empty());
  for (const core::UnitSelection& s : sel) {
    EXPECT_NE(s.unit_index, poisoned);
  }
}

// Every tournament entrant's selection passes the static analyzer, on
// an architecture with residual constraints and on the tiny net.
TEST(StrategyCertificationTest, EveryEntrantPlanPassesRequireOk) {
  tournament::TournamentConfig tcfg;
  tcfg.class_aware.mode = core::StrategyMode::kPercentage;
  tcfg.class_aware.importance.images_per_class = 2;
  tcfg.criterion_images_per_class = 2;
  tcfg.provable.images_per_class = 2;

  for (const char* arch : {"resnet20", "tiny"}) {
    SCOPED_TRACE(arch);
    const data::SyntheticCifar data = tiny_data(10, 16);
    for (const std::string& name : tournament::default_roster()) {
      SCOPED_TRACE(name);
      auto strat = tournament::make_strategy(name, tcfg);
      models::BuildConfig mcfg;
      nn::Model model = models::make_model(arch, mcfg);
      const graph::ModuleGraph g = graph::ModuleGraph::build(model);
      ASSERT_TRUE(g.ok());
      const StrategyContext ctx{model, g, data.train};
      const core::SelectionLimits limits{};
      const auto sel = select(strat->score(ctx), *strat, limits);
      if (strat->mode() == core::StrategyMode::kPercentage) {
        EXPECT_FALSE(sel.empty());
      }
      const core::PruneStrategyConfig scfg = selection_config(*strat, limits);
      analysis::VerifyOptions opts;
      opts.strategy = &scfg;
      analysis::require_ok(analysis::analyze_plan(model, sel, opts));
      core::apply_selection(model, sel);
      analysis::require_ok(analysis::analyze_model(model));
    }
  }
}

// The shared runner: prunes over iterations, preserves the legacy stop
// reasons, and rejects out-of-range limits before any training.
TEST(StrategyRunnerTest, RunsAndValidates) {
  models::BuildConfig mcfg;
  mcfg.num_classes = 3;
  mcfg.input_size = 8;
  mcfg.width_mult = 0.5f;
  nn::Model model = models::make_tiny_cnn(mcfg);
  const data::SyntheticCifar data = tiny_data(3, 8);

  DependencyAwareStrategy strat;
  StrategyRunConfig rcfg;
  rcfg.max_iterations = 2;
  rcfg.max_accuracy_drop = 1.0f;
  rcfg.limits.max_fraction_per_iter = 0.2f;
  rcfg.limits.min_filters_per_layer = 1;
  rcfg.finetune.epochs = 1;
  rcfg.finetune.batch_size = 6;
  int iterations_seen = 0;
  rcfg.on_iteration = [&](const IterationRecord&) { ++iterations_seen; };
  const StrategyRunResult res = run_strategy(model, strat, data.train, data.test, rcfg);
  EXPECT_EQ(res.method, "dependency-aware");
  EXPECT_EQ(res.iterations_run, 2);
  EXPECT_EQ(iterations_seen, 2);
  EXPECT_GT(res.filters_removed, 0);
  EXPECT_EQ(res.stop_reason, "max iterations reached");
  EXPECT_GT(res.report.pruning_ratio(), 0.0);

  StrategyRunConfig bad = rcfg;
  bad.limits.max_fraction_per_iter = 0.0f;
  nn::Model fresh = models::make_tiny_cnn(mcfg);
  EXPECT_THROW(run_strategy(fresh, strat, data.train, data.test, bad), std::invalid_argument);
}

}  // namespace
}  // namespace capr::strategy
