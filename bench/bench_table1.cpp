// Reproduces paper Table I: accuracy before/after class-aware pruning,
// pruning ratio and FLOPs reduction for VGG16-C10, VGG19-C100,
// ResNet56-C10 and ResNet56-C100.
//
// Paper numbers are printed alongside the measured values. Absolute
// accuracies differ (synthetic data, reduced scale — see DESIGN.md); the
// claims that should hold are:
//   * small accuracy drop between the original and pruned model,
//   * large parameter pruning ratio with a large FLOPs reduction,
//   * VGG tolerates much higher pruning than the block-constrained
//     ResNet56, and 10-class tasks prune more than 100-class ones.
#include <algorithm>
#include <iostream>

#include "report/csv.h"
#include "report/experiment.h"
#include "report/table.h"

namespace {

struct PaperRow {
  const char* name;
  const char* arch;
  int64_t classes;
  double orig, pruned, ratio, flops;
};

constexpr PaperRow kPaperRows[] = {
    {"VGG16-C10", "vgg16", 10, 0.9390, 0.9299, 0.956, 0.771},
    {"VGG19-C100", "vgg19", 100, 0.7349, 0.7256, 0.854, 0.752},
    {"ResNet56-C10", "resnet56", 10, 0.9371, 0.9289, 0.779, 0.623},
    {"ResNet56-C100", "resnet56", 100, 0.7236, 0.7149, 0.500, 0.438},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Table I", "pruning results with the proposed method");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  report::Table table({"NN-Dataset", "Acc orig", "Acc pruned", "Prun. ratio", "FLOPs red.",
                       "paper(orig/pruned/ratio/flops)"});
  report::CsvWriter csv({"config", "acc_orig", "acc_pruned", "pruning_ratio",
                         "flops_reduction", "iterations", "stop_reason"});
  for (const PaperRow& row : kPaperRows) {
    if (args.smoke && &row != &kPaperRows[0]) break;  // smoke: first row only
    std::cout << "running " << row.name << " ..." << std::endl;
    report::Workbench wb = report::prepare_workbench(row.arch, row.classes, scale);
    report::PrunerConfig cfg = report::pruner_config(scale);
    cfg.run.model_factory = wb.factory;
    if (scale.name == "micro" && row.classes >= 100) {
      // 100-class scoring costs ~10x the 10-class passes on one core;
      // cap the loop so the whole table stays inside the time budget.
      cfg.run.max_iterations = std::min(cfg.run.max_iterations, 5);
      cfg.strategy.importance.images_per_class = 4;
    }
    cfg.run.on_iteration = [](const strategy::IterationRecord& it) {
      std::cout << "    iter " << it.iteration << ": -" << it.filters_removed
                << " filters, acc " << report::pct(it.accuracy_after_finetune) << std::endl;
    };
    strategy::ClassAwareStrategy strat(cfg.strategy);
    const strategy::StrategyRunResult res =
        strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);

    table.add_row({row.name, report::pct(res.original_accuracy),
                   report::pct(res.final_accuracy), report::pct(res.report.pruning_ratio()),
                   report::pct(res.report.flops_reduction()),
                   report::pct(row.orig) + " / " + report::pct(row.pruned) + " / " +
                       report::pct(row.ratio) + " / " + report::pct(row.flops)});
    csv.add_row({row.name, report::fixed(res.original_accuracy, 4),
                 report::fixed(res.final_accuracy, 4),
                 report::fixed(res.report.pruning_ratio(), 4),
                 report::fixed(res.report.flops_reduction(), 4),
                 std::to_string(res.iterations.size()), res.stop_reason});
    std::cout << "  " << row.name << ": acc " << report::pct(res.original_accuracy) << " -> "
              << report::pct(res.final_accuracy) << ", params "
              << report::human_count(res.report.params_before) << " -> "
              << report::human_count(res.report.params_after) << ", stop: " << res.stop_reason
              << "\n";
  }
  std::cout << "\n" << table.render() << std::endl;
  try {
    csv.write("table1_results.csv");
    std::cout << "CSV written to table1_results.csv\n";
  } catch (const std::exception& e) {
    std::cerr << "CSV write failed: " << e.what() << "\n";
  }
  return 0;
}
