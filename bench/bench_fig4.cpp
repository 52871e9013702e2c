// Reproduces paper Fig. 4: the distribution of filter importance scores
// in a single layer, before and after class-aware pruning.
//   VGG16-CIFAR10  : first convolutional layer
//   VGG19-CIFAR100 : third convolutional layer
//   ResNet56-C10/100: 40th convolutional layer (block 19's first conv)
//
// The paper's claim: before pruning many filters sit at low scores;
// after pruning the low-score mass is gone and the remaining filters
// score high (the distribution shifts right).
#include <iostream>
#include <vector>

#include "core/importance.h"
#include "report/experiment.h"
#include "report/table.h"

namespace {

struct Panel {
  const char* title;
  const char* arch;
  int64_t classes;
  size_t unit_index;  // which prunable unit's scores to display
};

}  // namespace

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Figure 4",
                       "filter importance score distribution before/after pruning");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  const std::vector<Panel> all_panels = {
      {"VGG16-C10, conv layer 1", "vgg16", 10, 0},
      {"VGG19-C100, conv layer 3", "vgg19", 100, 2},
      // ResNet56 unit k is block k's first conv = conv layer 2k+2 in the
      // paper's flat numbering; unit 19 ~ the 40th conv layer.
      {"ResNet56-C10, conv layer 40", "resnet56", 10, 19},
      {"ResNet56-C100, conv layer 40", "resnet56", 100, 19},
  };
  // The micro scale runs the two primary panels to stay within a
  // single-core time budget; small/full run all four of the paper's.
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
    const std::vector<float> before = evaluator.evaluate(wb.model, wb.data.train)
                                          .units[p.unit_index].total;
    strategy::ClassAwareStrategy strat(cfg.strategy);
    strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);
    const std::vector<float> after = evaluator.evaluate(wb.model, wb.data.train)
                                         .units[p.unit_index].total;

    const float max_score = static_cast<float>(p.classes);
    std::cout << "\n--- " << p.title << " ---\n";
    std::cout << "before pruning (" << before.size() << " filters):\n"
              << report::histogram(before, 10, max_score) << "after pruning ("
              << after.size() << " filters):\n"
              << report::histogram(after, 10, max_score) << "\n";
  }
  std::cout << "Expected shape (paper): low-score mass disappears and the\n"
               "distribution shifts right after pruning.\n";
  return 0;
}
