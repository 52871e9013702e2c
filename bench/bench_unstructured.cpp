// Background comparison (paper Section II-A): unstructured magnitude
// pruning vs the structured class-aware method.
//
// The paper argues unstructured pruning achieves high *sparsity* but no
// *dense-hardware* speedup: the weight matrices stay the same shape, so
// a systolic array still schedules every MAC. This bench makes that
// concrete: at matched (or higher) zeroed-weight fractions the
// unstructured model's dense FLOPs are unchanged, while the structured
// class-aware model's FLOPs fall with its pruning ratio.
#include <iostream>

#include "baselines/unstructured.h"
#include "report/experiment.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Background", "structured vs unstructured pruning (VGG16-C10)");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  report::Workbench wb = report::prepare_workbench("vgg16", 10, scale);
  const auto checkpoint = wb.model.state_dict();
  std::cout << "original accuracy " << report::pct(wb.pretrained_accuracy) << "\n";

  report::Table table({"Method", "Acc after", "Weights zeroed", "Dense FLOPs red."});

  // Unstructured magnitude pruning at several sparsities.
  const std::vector<float> sparsities =
      args.smoke ? std::vector<float>{0.5f} : std::vector<float>{0.5f, 0.8f, 0.9f};
  for (float sparsity : sparsities) {
    wb.model = wb.factory();
    wb.model.load_state_dict(checkpoint);
    baselines::UnstructuredConfig cfg;
    cfg.sparsity = sparsity;
    cfg.finetune.epochs = scale.finetune_epochs;
    cfg.finetune.batch_size = scale.batch_size;
    cfg.finetune.sgd.lr = 0.02f;
    baselines::UnstructuredPruner pruner(cfg);
    const auto res = pruner.run(wb.model, wb.data.train, wb.data.test);
    table.add_row({"unstructured " + report::pct(sparsity, 0),
                   report::pct(res.accuracy_after), report::pct(res.achieved_sparsity()),
                   "0.0% (dense shapes unchanged)"});
  }

  // Structured class-aware pruning for contrast.
  {
    wb.model = wb.factory();
    wb.model.load_state_dict(checkpoint);
    report::PrunerConfig cfg = report::pruner_config(scale);
    cfg.run.model_factory = wb.factory;
    strategy::ClassAwareStrategy strat(cfg.strategy);
    const auto res = strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);
    table.add_row({"class-aware (structured)", report::pct(res.final_accuracy),
                   report::pct(res.report.pruning_ratio()),
                   report::pct(res.report.flops_reduction())});
  }

  std::cout << "\n" << table.render()
            << "\nExpected shape (paper Sec. II-A): unstructured reaches high sparsity\n"
               "at good accuracy but leaves dense FLOPs untouched; structured pruning\n"
               "turns its (smaller) ratio into a real FLOPs reduction.\n";
  return 0;
}
