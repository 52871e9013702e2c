// Extending the framework with a custom pruning criterion.
//
//   $ ./build/examples/custom_criterion
//
// strategy::PruneStrategy is the extension point: implement name() and
// score() (and optionally mode(), score_threshold() and
// train_regularizer()) and the method runs through the same
// strategy::run_strategy loop as the built-in methods. Here we add a
// deliberately bad RandomStrategy and race it against L1 and the
// class-aware method — a useful sanity harness when developing new
// criteria, because any criterion worth keeping must beat random.
#include <iostream>

#include "baselines/magnitude.h"
#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"
#include "tensor/rng.h"

namespace {

using namespace capr;

/// Assigns every filter a random importance — the control condition.
class RandomStrategy final : public strategy::PruneStrategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "Random"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override {
    std::vector<std::vector<float>> per_unit;
    for (const nn::PrunableUnit& u : ctx.model.units) {
      std::vector<float> s(static_cast<size_t>(u.conv->out_channels()));
      for (float& v : s) v = rng_.uniform();
      per_unit.push_back(std::move(s));
    }
    // Keep the groups the model graph admits as prunable.
    return strategy::admitted_scores(ctx, per_unit);
  }

 private:
  Rng rng_;
};

}  // namespace

int main() {
  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.train_per_class = 24;
  dcfg.test_per_class = 12;
  dcfg.image_size = 12;
  dcfg.noise_stddev = 0.3f;
  const data::SyntheticCifar dataset = data::make_synthetic_cifar(dcfg);

  models::BuildConfig mcfg;
  mcfg.num_classes = 6;
  mcfg.input_size = 12;
  mcfg.width_mult = 0.5f;

  const auto fresh_trained = [&] {
    nn::Model m = models::make_tiny_cnn(mcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batch_size = 24;
    tcfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 5e-4f};
    core::ModifiedLoss reg;
    nn::train(m, dataset.train, tcfg, &reg);
    return m;
  };

  strategy::StrategyRunConfig rcfg;
  rcfg.limits.max_fraction_per_iter = 0.25f;
  rcfg.max_iterations = 3;
  rcfg.max_accuracy_drop = 0.10f;
  rcfg.finetune.epochs = 2;
  rcfg.finetune.batch_size = 24;
  rcfg.finetune.sgd.lr = 0.02f;

  std::cout << "criterion comparison (same pruning driver, same budget):\n";
  RandomStrategy random(7);
  baselines::L1Strategy l1;
  for (strategy::PruneStrategy* strat :
       std::initializer_list<strategy::PruneStrategy*>{&random, &l1}) {
    nn::Model m = fresh_trained();
    const auto res = strategy::run_strategy(m, *strat, dataset.train, dataset.test, rcfg);
    std::cout << "  " << res.method << ": " << res.original_accuracy * 100 << "% -> "
              << res.final_accuracy * 100 << "% at ratio "
              << res.report.pruning_ratio() * 100 << "%\n";
  }

  // And the proposed class-aware method under a matched budget, with the
  // recovery fine-tunes the class-aware examples use.
  nn::Model m = fresh_trained();
  strategy::ClassAwareStrategyConfig scfg;
  scfg.importance.images_per_class = 6;
  scfg.importance.tau_mode = core::TauMode::kQuantile;
  scfg.mode = core::StrategyMode::kPercentage;
  strategy::ClassAwareStrategy class_aware(scfg);
  strategy::StrategyRunConfig ccfg = rcfg;
  ccfg.recovery_rounds = 2;
  const auto res = strategy::run_strategy(m, class_aware, dataset.train, dataset.test, ccfg);
  std::cout << "  Class-Aware: " << res.original_accuracy * 100 << "% -> "
            << res.final_accuracy * 100 << "% at ratio "
            << res.report.pruning_ratio() * 100 << "%\n";
  return 0;
}
