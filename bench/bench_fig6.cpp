// Reproduces paper Fig. 6: comparison of the proposed class-aware pruning
// against prior criteria — L1 [23], SSS [27], HRank [19], TPP [18],
// OrthConv [31], DepGraph full/no grouping [13] — plus the Taylor-FO and
// APoZ criteria that motivate them, on Top-1 accuracy, pruning ratio and
// FLOPs reduction.
//
// Every method starts from the same pre-trained checkpoint and runs
// through the same iterative prune/fine-tune driver (run_strategy) with
// the same stop rule. The class-aware row additionally spends the
// scale's recovery rounds and rolls back an unrecovered iteration; the
// baseline rows run with neither (see DESIGN.md, Fig. 6).
//
// The paper's claim: class-aware pruning reaches the highest accuracy at
// comparable (or better) pruning ratio / FLOPs reduction in most cases.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/activation.h"
#include "baselines/magnitude.h"
#include "baselines/regularized.h"
#include "report/experiment.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Figure 6", "comparison with previous pruning methods");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  // Micro scale compares on VGG16-C10 only (time budget on one core);
  // small/full also run the ResNet56 panel.
  std::vector<const char*> archs{"vgg16", "resnet56"};
  if (scale.name == "smoke") {
    archs = {"vgg16"};
  } else if (scale.name == "micro") {
    archs = {"vgg16"};
    std::cout << "(micro scale: VGG16-C10 panel only; CAPR_SCALE=small adds ResNet56)\n\n";
  }
  for (const char* arch : archs) {
    std::cout << "=== " << arch << "-C10 ===\n";
    std::cout << "pre-training shared checkpoint ..." << std::endl;
    report::Workbench wb = report::prepare_workbench(arch, 10, scale);
    const auto checkpoint = wb.model.state_dict();
    std::cout << "  original accuracy " << report::pct(wb.pretrained_accuracy) << "\n";

    const auto rebuild = [&] {
      wb.model = wb.factory();
      wb.model.load_state_dict(checkpoint);
    };

    report::Table table({"Method", "Acc pruned", "Drop", "Prun. ratio", "FLOPs red."});

    // Proposed method.
    {
      std::cout << "running Class-Aware (proposed) ..." << std::endl;
      rebuild();
      report::PrunerConfig ccfg = report::pruner_config(scale);
      ccfg.run.model_factory = wb.factory;
      strategy::ClassAwareStrategy strat(ccfg.strategy);
      const strategy::StrategyRunResult res =
          strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, ccfg.run);
      table.add_row({"Class-Aware (ours)", report::pct(res.final_accuracy),
                     report::pct(res.final_accuracy - res.original_accuracy),
                     report::pct(res.report.pruning_ratio()),
                     report::pct(res.report.flops_reduction())});
    }

    // Baselines through the shared driver.
    strategy::StrategyRunConfig bcfg;
    bcfg.limits.max_fraction_per_iter = scale.max_fraction_per_iter;
    bcfg.limits.max_layer_fraction_per_iter = scale.max_layer_fraction_per_iter;
    bcfg.max_iterations = scale.name == "micro" ? std::min(scale.max_iterations, 6)
                                                : scale.max_iterations;
    bcfg.max_accuracy_drop = scale.max_accuracy_drop;
    bcfg.finetune.epochs = scale.finetune_epochs;
    bcfg.finetune.batch_size = scale.batch_size;
    bcfg.finetune.sgd.lr = 0.02f;

    const int64_t m = scale.images_per_class_scoring;
    std::vector<std::unique_ptr<strategy::PruneStrategy>> methods;
    methods.push_back(std::make_unique<baselines::L1Strategy>());
    methods.push_back(std::make_unique<baselines::SSSStrategy>());
    methods.push_back(std::make_unique<baselines::HRankStrategy>(m));
    methods.push_back(std::make_unique<baselines::TPPStrategy>(m));
    methods.push_back(std::make_unique<baselines::OrthConvStrategy>());
    methods.push_back(std::make_unique<baselines::DepGraphStrategy>(true));
    methods.push_back(std::make_unique<baselines::DepGraphStrategy>(false));
    methods.push_back(std::make_unique<baselines::TaylorFOStrategy>(m));
    methods.push_back(std::make_unique<baselines::APoZStrategy>(m));

    for (auto& method : methods) {
      std::cout << "running " << method->name() << " ..." << std::endl;
      rebuild();
      const strategy::StrategyRunResult res =
          strategy::run_strategy(wb.model, *method, wb.data.train, wb.data.test, bcfg);
      table.add_row({res.method, report::pct(res.final_accuracy),
                     report::pct(res.final_accuracy - res.original_accuracy),
                     report::pct(res.report.pruning_ratio()),
                     report::pct(res.report.flops_reduction())});
    }
    std::cout << "\n" << table.render() << "\n";
  }
  std::cout << "Paper reference points (Fig. 6, VGG16-C10): ours 93.2% acc @ 94.8%\n"
               "ratio / 71.8% FLOPs; L1 93.3% @ 64%/34%; SSS 93.0% @ 74%/37%;\n"
               "HRank 92.3% @ 82.9%/53.5%; DepGraph ~93.5% @ ~80%/~55%.\n"
               "Expected shape: the class-aware row attains the best or near-best\n"
               "accuracy at the largest pruning ratio.\n";
  return 0;
}
