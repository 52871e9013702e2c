#include "strategy/strategy.h"

namespace capr::strategy {

std::vector<PrunableGroup> prunable_groups(const StrategyContext& ctx) {
  std::vector<PrunableGroup> out;
  out.reserve(ctx.model.units.size());
  for (size_t i = 0; i < ctx.model.units.size(); ++i) {
    const nn::PrunableUnit& u = ctx.model.units[i];
    const graph::CouplingGroup* g = ctx.graph.group_for(u.conv);
    if (g == nullptr || g->residual_constrained || g->consumers.empty()) continue;
    out.push_back({i, g, ctx.graph.materialize(*g)});
  }
  return out;
}

ScoreSet admitted_scores(const StrategyContext& ctx,
                         const std::vector<std::vector<float>>& per_unit) {
  ScoreSet out;
  out.num_classes = ctx.train_set.num_classes();
  for (const PrunableGroup& pg : prunable_groups(ctx)) {
    out.groups.push_back({pg.unit_index, pg.group->name, per_unit.at(pg.unit_index)});
  }
  return out;
}

core::PruneStrategyConfig selection_config(const PruneStrategy& strat,
                                           const core::SelectionLimits& limits) {
  core::PruneStrategyConfig cfg;
  static_cast<core::SelectionLimits&>(cfg) = limits;
  cfg.mode = strat.mode();
  cfg.score_threshold = strat.score_threshold();
  return cfg;
}

std::vector<core::UnitSelection> select(const ScoreSet& scores, const PruneStrategy& strat,
                                        const core::SelectionLimits& limits) {
  std::vector<core::ScoredUnit> units;
  units.reserve(scores.groups.size());
  for (const GroupScores& g : scores.groups) {
    units.push_back({g.unit_index, g.total});
  }
  return core::select_scored(units, selection_config(strat, limits), scores.num_classes);
}

}  // namespace capr::strategy
