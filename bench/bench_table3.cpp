// Reproduces paper Table III: pruning performance under different cost
// functions — no regularization, L1 only, L_orth only, and L1 + L_orth —
// for VGG16-C10 and ResNet56-C10.
//
// The paper's claim: the combination achieves the smallest accuracy drop
// together with the largest pruning ratio; each individual term helps
// over no regularization.
#include <algorithm>
#include <iostream>
#include <vector>

#include "report/experiment.h"
#include "report/table.h"

namespace {

struct RegRow {
  const char* name;
  float lambda1, lambda2;
  double paper_vgg_pruned, paper_vgg_ratio;
  double paper_rn_pruned, paper_rn_ratio;
};

// Paper values: (pruned acc, pruning ratio) per net.
constexpr RegRow kRegs[] = {
    {"none", 0.0f, 0.0f, 0.9291, 0.736, 0.9274, 0.694},
    {"L1", 1e-4f, 0.0f, 0.9306, 0.918, 0.9277, 0.720},
    {"L_orth", 0.0f, 1e-2f, 0.9310, 0.745, 0.9273, 0.693},
    {"L1+L_orth", 1e-4f, 1e-2f, 0.9316, 0.948, 0.9289, 0.779},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Table III", "performance with different cost functions");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  // Micro runs the VGG16 half of the paper's table (single-core budget);
  // small/full also run ResNet56.
  std::vector<const char*> archs{"vgg16", "resnet56"};
  if (scale.name == "smoke") {
    archs = {"vgg16"};
  } else if (scale.name == "micro") {
    archs = {"vgg16"};
    std::cout << "(micro scale: VGG16-C10 rows only; CAPR_SCALE=small adds ResNet56)\n\n";
  }
  for (const char* arch : archs) {
    std::cout << "=== " << arch << "-C10 ===\n";
    report::Table table({"Reg.", "Acc orig", "Acc pruned", "Drop", "Prun. ratio",
                         "FLOPs red.", "paper(pruned/ratio)"});
    for (const RegRow& reg : kRegs) {
      if (args.smoke && &reg != &kRegs[0]) break;  // smoke: first row only
      std::cout << "training " << arch << " with reg = " << reg.name << " ..." << std::endl;
      report::Workbench wb =
          report::prepare_workbench(arch, 10, scale, reg.lambda1, reg.lambda2);
      report::PrunerConfig cfg = report::pruner_config(scale);
      cfg.strategy.loss.lambda1 = reg.lambda1;
      cfg.strategy.loss.lambda2 = reg.lambda2;
      cfg.run.model_factory = wb.factory;
      if (scale.name == "micro") cfg.run.max_iterations = std::min(cfg.run.max_iterations, 6);
      strategy::ClassAwareStrategy strat(cfg.strategy);
      const strategy::StrategyRunResult res =
          strategy::run_strategy(wb.model, strat, wb.data.train, wb.data.test, cfg.run);

      const bool is_vgg = std::string(arch) == "vgg16";
      const double paper_pruned = is_vgg ? reg.paper_vgg_pruned : reg.paper_rn_pruned;
      const double paper_ratio = is_vgg ? reg.paper_vgg_ratio : reg.paper_rn_ratio;
      table.add_row({reg.name, report::pct(res.original_accuracy),
                     report::pct(res.final_accuracy),
                     report::pct(res.final_accuracy - res.original_accuracy),
                     report::pct(res.report.pruning_ratio()),
                     report::pct(res.report.flops_reduction()),
                     report::pct(paper_pruned) + " / " + report::pct(paper_ratio)});
    }
    std::cout << "\n" << table.render() << "\n";
  }
  return 0;
}
