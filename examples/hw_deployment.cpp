// Deployment sizing: pick a pruning level that meets a latency budget on
// a concrete accelerator.
//
//   $ ./build/examples/hw_deployment
//
// Combines the class-aware pruning pipeline with the systolic-array cost
// model: train, then iteratively prune while tracking simulated latency,
// and stop as soon as the model fits the budget — the workflow an edge
// deployment actually runs (the paper's motivating scenario).
#include <iostream>

#include "data/synthetic.h"
#include "hw/systolic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

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
  nn::Model model = models::make_vgg16(mcfg);

  nn::TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.batch_size = 32;
  tcfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 5e-4f};
  core::ModifiedLoss reg;
  nn::train(model, dataset.train, tcfg, &reg);

  hw::SystolicConfig array;
  array.rows = 8;
  array.cols = 8;
  const double budget_us = 0.6 * hw::simulate(model, array).latency_us(array);
  std::cout << "dense latency: " << hw::simulate(model, array).latency_us(array)
            << " us; budget: " << budget_us << " us\n";

  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 6;
  scfg.importance.tau_mode = core::TauMode::kQuantile;
  strategy::ClassAwareStrategy strat(scfg);
  strategy::StrategyRunConfig rcfg;
  rcfg.limits.max_fraction_per_iter = 0.15f;
  rcfg.finetune.epochs = 2;
  rcfg.finetune.batch_size = 32;
  rcfg.finetune.sgd.lr = 0.02f;
  rcfg.max_accuracy_drop = 0.08f;
  rcfg.recovery_rounds = 2;
  rcfg.max_iterations = 10;
  // Roll back any iteration whose accuracy cannot be recovered, so the
  // deployed model never violates the quality bar.
  rcfg.model_factory = [&mcfg] { return models::make_vgg16(mcfg); };
  rcfg.on_iteration = [](const strategy::IterationRecord& it) {
    std::cout << "iter " << it.iteration << ": acc " << it.accuracy_after_finetune * 100
              << "%, params " << it.params << "\n";
  };
  strategy::run_strategy(model, strat, dataset.train, dataset.test, rcfg);

  const hw::ModelSim final_sim = hw::simulate(model, array);
  std::cout << "\npruned latency: " << final_sim.latency_us(array) << " us ("
            << (final_sim.latency_us(array) <= budget_us ? "meets" : "misses")
            << " the budget), accuracy " << nn::evaluate(model, dataset.test) * 100
            << "%\n";
  std::cout << "energy/inference: " << final_sim.total_energy_nj / 1e3 << " uJ, DRAM "
            << final_sim.total_dram_bytes / 1024 << " KiB\n";
  return 0;
}
