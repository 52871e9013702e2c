// Quickstart: train a small CNN on synthetic data, prune it with the
// class-aware framework, and report the compression achieved.
//
//   $ ./build/examples/quickstart
//
// This walks the whole pipeline of the paper in miniature:
//   1. build a model and a labelled dataset,
//   2. train with the modified cost L = L_CE + l1*L1 + l2*L_orth,
//   3. run the iterative class-aware prune/fine-tune loop,
//   4. compare parameters / FLOPs / accuracy before and after.
#include <iostream>

#include "analysis/checked.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/summary.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

int main() {
  using namespace capr;

  // Checked mode: the static analyzer (src/analysis) certifies the model
  // graph and every prune plan BEFORE a mutation or a training epoch is
  // spent — a bad plan throws analysis::AnalysisError in microseconds
  // instead of corrupting the run.
  analysis::enable_checked_mode();

  // 1. A 4-class synthetic dataset and a two-conv CNN.
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.train_per_class = 32;
  dcfg.test_per_class = 16;
  dcfg.image_size = 12;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);

  models::BuildConfig mcfg;
  mcfg.num_classes = 4;
  mcfg.input_size = 12;
  mcfg.width_mult = 1.0f;
  nn::Model model = models::make_tiny_cnn(mcfg);
  std::cout << nn::summary(model) << "\n";

  // 2. Train with the paper's modified cost function (Eq. 1).
  nn::TrainConfig tcfg;
  tcfg.epochs = 10;
  tcfg.batch_size = 32;
  tcfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 5e-4f};
  core::ModifiedLoss reg;  // default lambda1 = 1e-4, lambda2 = 1e-2
  nn::train(model, dataset.train, tcfg, &reg);
  std::cout << "trained: test accuracy " << nn::evaluate(model, dataset.test) * 100 << "%\n";

  // 3. Class-aware pruning (Fig. 5 loop).
  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 8;                 // M in Eq. 6
  scfg.importance.tau_mode = core::TauMode::kQuantile;  // float32-friendly Eq. 5
  scfg.mode = core::StrategyMode::kBoth;                // threshold + percentage
  strategy::ClassAwareStrategy strat(scfg);
  strategy::StrategyRunConfig rcfg;
  rcfg.limits.max_fraction_per_iter = 0.2f;
  rcfg.finetune.epochs = 3;
  rcfg.finetune.batch_size = 32;
  rcfg.finetune.sgd.lr = 0.02f;
  rcfg.max_accuracy_drop = 0.05f;
  rcfg.recovery_rounds = 2;
  rcfg.max_iterations = 6;
  const strategy::StrategyRunResult result =
      strategy::run_strategy(model, strat, dataset.train, dataset.test, rcfg);

  // 4. Report.
  std::cout << "\npruning finished (" << result.stop_reason << ") after "
            << result.iterations.size() << " iterations\n";
  std::cout << "accuracy : " << result.original_accuracy * 100 << "% -> "
            << result.final_accuracy * 100 << "%\n";
  std::cout << "params   : " << result.report.params_before << " -> "
            << result.report.params_after << "  (pruning ratio "
            << result.report.pruning_ratio() * 100 << "%)\n";
  std::cout << "FLOPs    : " << result.report.flops_before << " -> "
            << result.report.flops_after << "  (reduction "
            << result.report.flops_reduction() * 100 << "%)\n";
  return 0;
}
