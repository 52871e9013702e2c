// ResNet pruning with the residual-block constraint, plus checkpointing.
//
//   $ ./build/examples/resnet_pruning
//
// ResNets couple the output channels of every block to the shortcut, so
// (as in the paper) only the FIRST conv of each basic block is pruned;
// the builder encodes this in the PrunableUnit list and the surgeon keeps
// every residual add shape-legal. The pruned model is then saved to disk
// and its checkpoint reloaded for deployment-style inference.
#include <cstdio>
#include <iostream>

#include "core/surgeon.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"
#include "tensor/serialize.h"

int main() {
  using namespace capr;

  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.train_per_class = 24;
  dcfg.test_per_class = 12;
  dcfg.image_size = 12;
  dcfg.noise_stddev = 0.3f;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);

  models::BuildConfig mcfg;
  mcfg.num_classes = 10;
  mcfg.input_size = 12;
  mcfg.width_mult = 0.25f;
  nn::Model model = models::make_resnet20(mcfg);
  std::cout << model.arch << ": " << model.units.size()
            << " prunable convs (first conv of each basic block)\n";

  nn::TrainConfig tcfg;
  tcfg.epochs = 12;
  tcfg.batch_size = 32;
  tcfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 5e-4f};
  core::ModifiedLoss reg;
  nn::train(model, dataset.train, tcfg, &reg);

  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 6;
  scfg.importance.tau_mode = core::TauMode::kQuantile;
  strategy::ClassAwareStrategy strat(scfg);
  strategy::StrategyRunConfig rcfg;
  rcfg.limits.max_fraction_per_iter = 0.2f;
  rcfg.finetune.epochs = 2;
  rcfg.finetune.batch_size = 32;
  rcfg.finetune.sgd.lr = 0.02f;
  rcfg.max_accuracy_drop = 0.08f;
  rcfg.recovery_rounds = 2;
  rcfg.max_iterations = 5;
  const strategy::StrategyRunResult result =
      strategy::run_strategy(model, strat, dataset.train, dataset.test, rcfg);

  std::cout << "\niteration trajectory:\n";
  for (const strategy::IterationRecord& it : result.iterations) {
    std::cout << "  iter " << it.iteration << ": removed " << it.filters_removed
              << " filters, " << it.filters_remaining << " remain, accuracy "
              << it.accuracy_after_finetune * 100 << "%, params " << it.params << "\n";
  }
  std::cout << "final: " << result.original_accuracy * 100 << "% -> "
            << result.final_accuracy * 100 << "% at pruning ratio "
            << result.report.pruning_ratio() * 100 << "%\n";

  // Checkpoint the pruned model and reload it into a matching skeleton.
  const std::string path = "resnet20_pruned.ckpt";
  save_tensor_map(path, model.state_dict());
  std::cout << "\nsaved pruned checkpoint to " << path << "\n";

  // A reload target must have the pruned shapes; replay the per-unit
  // channel counts onto a fresh model, then load.
  nn::Model fresh = models::make_resnet20(mcfg);
  for (size_t u = 0; u < fresh.units.size(); ++u) {
    const int64_t want = model.units[u].conv->out_channels();
    const int64_t have = fresh.units[u].conv->out_channels();
    if (want < have) {
      std::vector<int64_t> drop;
      for (int64_t f = want; f < have; ++f) drop.push_back(f);
      core::remove_filters(fresh, u, drop);
    }
  }
  fresh.load_state_dict(load_tensor_map(path));
  std::cout << "reloaded accuracy " << nn::evaluate(fresh, dataset.test) * 100 << "%\n";
  std::remove(path.c_str());
  return 0;
}
