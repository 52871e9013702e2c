// Reproduces paper Fig. 7: the average importance score of the filters in
// every layer, before and after the proposed pruning.
//
// The paper's claim: after pruning, most layers show a considerable
// growth of the average score — the surviving filters are important for
// many classes.
#include <iostream>
#include <vector>

#include "core/importance.h"
#include "report/experiment.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Figure 7", "average filter importance per layer, before vs after");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  struct Panel {
    const char* title;
    const char* arch;
    int64_t classes;
  };
  const std::vector<Panel> all_panels = {
      {"VGG16-C10", "vgg16", 10},
      {"VGG19-C100", "vgg19", 100},
      {"ResNet56-C10", "resnet56", 10},
      {"ResNet56-C100", "resnet56", 100},
  };
  // Micro scale runs the two primary panels (time budget); small/full
  // reproduce all four of the paper's.
  std::vector<Panel> panels = all_panels;
  if (scale.name == "smoke") {
    panels = {all_panels[0]};
  } else if (scale.name == "micro") {
    panels = {all_panels[0], all_panels[2]};
    std::cout << "(micro scale: running 2 of 4 panels; CAPR_SCALE=small runs all)\n\n";
  }

  for (const Panel& p : panels) {
    std::cout << "running " << p.title << " ..." << std::endl;
    report::Workbench wb = report::prepare_workbench(p.arch, p.classes, scale);
    report::PrunerConfig cfg = report::pruner_config(scale);
    cfg.run.model_factory = wb.factory;
    core::ImportanceEvaluator evaluator(cfg.strategy.importance);
    const core::ImportanceResult scored = evaluator.evaluate(wb.model, wb.data.train);
    strategy::ClassAwareStrategy strat(cfg.strategy);
    strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);

    const std::vector<float> before = scored.mean_per_unit();
    const std::vector<float> after = evaluator.evaluate(wb.model, wb.data.train).mean_per_unit();

    report::Table table({"Layer (prunable unit)", "mean score before", "mean score after",
                         "growth"});
    int64_t grew = 0;
    for (size_t u = 0; u < before.size(); ++u) {
      if (after[u] > before[u]) ++grew;
      table.add_row({scored.units[u].unit_name, report::fixed(before[u]),
                     report::fixed(after[u]),
                     report::fixed(after[u] - before[u], 2)});
    }
    std::cout << "\n--- " << p.title << " ---\n"
              << table.render() << "layers with score growth: " << grew << "/"
              << before.size() << "\n\n";
  }
  std::cout << "Expected shape (paper): a considerable growth of the average\n"
               "importance score in most layers after pruning.\n";
  return 0;
}
