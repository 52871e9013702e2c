// Reproduces paper Table II: ResNet56-CIFAR10 under the three pruning
// strategies — percentage-only, threshold-only, and the combination.
//
// The paper's claim: the combined strategy reaches the best operating
// point (highest pruned accuracy together with the largest pruning ratio
// and FLOPs reduction). The measured run should show the combination
// dominating or matching the individual strategies.
#include <algorithm>
#include <iostream>

#include "report/experiment.h"
#include "report/table.h"

namespace {

struct PaperRow {
  const char* name;
  capr::core::StrategyMode mode;
  double pruned, drop, ratio, flops;
};

constexpr PaperRow kRows[] = {
    {"percentage", capr::core::StrategyMode::kPercentage, 0.9276, -0.0095, 0.737, 0.552},
    {"threshold", capr::core::StrategyMode::kThreshold, 0.9278, -0.0094, 0.722, 0.604},
    {"percentage+threshold", capr::core::StrategyMode::kBoth, 0.9289, -0.0082, 0.779, 0.623},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Table II", "ResNet56-C10 under different pruning strategies");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  // One pre-trained checkpoint shared by all three strategies, so the
  // comparison isolates the selection rule.
  std::cout << "pre-training ResNet56-C10 ..." << std::endl;
  report::Workbench wb = report::prepare_workbench("resnet56", 10, scale);
  const auto checkpoint = wb.model.state_dict();
  const float original = wb.pretrained_accuracy;
  std::cout << "  original accuracy " << report::pct(original) << "\n";

  report::Table table({"Strategy", "Acc pruned", "Drop", "Prun. ratio", "FLOPs red.",
                       "paper(pruned/drop/ratio/flops)"});
  for (const PaperRow& row : kRows) {
    if (args.smoke && &row != &kRows[0]) break;  // smoke: first strategy only
    std::cout << "running strategy: " << row.name << " ..." << std::endl;
    wb.model.load_state_dict(checkpoint);
    report::PrunerConfig cfg = report::pruner_config(scale);
    cfg.strategy.mode = row.mode;
    cfg.run.model_factory = wb.factory;
    if (scale.name == "micro") cfg.run.max_iterations = std::min(cfg.run.max_iterations, 6);
    cfg.run.on_iteration = [](const strategy::IterationRecord& it) {
      std::cout << "    iter " << it.iteration << ": -" << it.filters_removed
                << " filters, acc " << report::pct(it.accuracy_after_finetune) << std::endl;
    };
    strategy::ClassAwareStrategy strat(cfg.strategy);
    const strategy::StrategyRunResult res =
        strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);

    table.add_row({row.name, report::pct(res.final_accuracy),
                   report::pct(res.final_accuracy - res.original_accuracy),
                   report::pct(res.report.pruning_ratio()),
                   report::pct(res.report.flops_reduction()),
                   report::pct(row.pruned) + " / " + report::pct(row.drop) + " / " +
                       report::pct(row.ratio) + " / " + report::pct(row.flops)});

    // Restore shapes for the next strategy: rebuild from scratch.
    wb.model = wb.factory();
  }
  std::cout << "\n" << table.render() << std::endl;
  return 0;
}
