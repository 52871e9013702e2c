// Reproduces paper Fig. 8: the importance-score distribution of filters
// for VGG16 on CIFAR-10 under different regularization strategies —
// no regularization, L1 only, L_orth only, and L1 + L_orth.
//
// The paper's claims:
//   * L1 produces more filters with score ~0 (sparsity),
//   * L_orth produces more high-score filters (diversity),
//   * the combination polarises the distribution at both ends,
//     giving the clearest important/unimportant separation.
#include <iostream>

#include "core/importance.h"
#include "report/experiment.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace capr;
  const report::BenchArgs args = report::parse_bench_args(argc, argv);
  report::print_banner("Figure 8",
                       "score distribution under different regularization (VGG16-C10)");
  const report::ExperimentScale scale =
      args.smoke ? report::smoke_scale() : report::scale_from_env();

  struct RegPanel {
    const char* name;
    float lambda1, lambda2;
  };
  const RegPanel regs[] = {
      {"no regularization", 0.0f, 0.0f},
      {"L1 only", 1e-4f, 0.0f},
      {"L_orth only", 0.0f, 1e-2f},
      {"L1 + L_orth", 1e-4f, 1e-2f},
  };

  for (const RegPanel& reg : regs) {
    if (args.smoke && &reg != &regs[0]) break;  // smoke: first panel only
    std::cout << "training with " << reg.name << " ..." << std::endl;
    report::Workbench wb =
        report::prepare_workbench("vgg16", 10, scale, reg.lambda1, reg.lambda2);

    core::ImportanceEvaluator eval(report::pruner_config(scale).strategy.importance);
    const core::ImportanceResult res = eval.evaluate(wb.model, wb.data.train);
    const std::vector<float> all = res.all_scores();

    int64_t lows = 0, highs = 0;
    for (float s : all) {
      if (s < 1.0f) ++lows;
      if (s > 9.0f) ++highs;
    }
    std::cout << "\n--- " << reg.name << " (test acc " << report::pct(wb.pretrained_accuracy)
              << ") ---\n"
              << report::histogram(all, 10, 10.0f)
              << "filters with score < 1: " << lows << ", score > 9: " << highs << " (of "
              << all.size() << ")\n\n";
  }
  std::cout << "Expected shape (paper): L1 grows the score~0 bucket, L_orth grows\n"
               "the score~10 bucket, and the combination yields the most polarised\n"
               "distribution.\n";
  return 0;
}
