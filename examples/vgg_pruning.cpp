// VGG16 pruning walkthrough with manual access to the intermediate
// artifacts: per-class importance scores, the selection produced by the
// strategy, and the per-iteration accuracy/size trajectory.
//
//   $ ./build/examples/vgg_pruning
//
// Where the quickstart drives the whole loop through run_strategy, this
// example performs one pruning iteration by hand — evaluate,
// inspect, select, operate, fine-tune — which is the granularity a user
// needs to build custom pruning schedules.
#include <algorithm>
#include <iostream>

#include "core/importance.h"
#include "core/modified_loss.h"
#include "core/strategy.h"
#include "core/surgeon.h"
#include "data/synthetic.h"
#include "flops/flops.h"
#include "models/builders.h"
#include "nn/trainer.h"

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
  std::cout << "VGG16 trained, accuracy "
            << nn::evaluate(model, dataset.test) * 100 << "%\n\n";

  // --- step 1: evaluate class-aware importance (Eqs. 4-7) -------------
  core::ImportanceConfig icfg;
  icfg.images_per_class = 6;
  icfg.tau_mode = core::TauMode::kQuantile;
  core::ImportanceEvaluator evaluator(icfg);
  const core::ImportanceResult scores = evaluator.evaluate(model, dataset.train);

  std::cout << "per-layer importance summary (score range 0.." << scores.num_classes
            << "):\n";
  for (const core::UnitScores& u : scores.units) {
    const auto [lo, hi] = std::minmax_element(u.total.begin(), u.total.end());
    double mean = 0;
    for (float s : u.total) mean += s;
    mean /= static_cast<double>(u.total.size());
    std::cout << "  " << u.unit_name << ": " << u.total.size() << " filters, min " << *lo
              << ", mean " << mean << ", max " << *hi << "\n";
  }

  // --- step 2: select filters with the combined strategy --------------
  core::PruneStrategyConfig strat;
  strat.mode = core::StrategyMode::kBoth;  // score threshold + percentage cap
  strat.max_fraction_per_iter = 0.15f;
  const std::vector<core::UnitSelection> selection = core::select_filters(scores, strat);
  std::cout << "\nselection: " << core::selection_size(selection) << " filters from "
            << selection.size() << " layers (threshold "
            << core::effective_threshold(strat, scores.num_classes) << ")\n";

  // --- step 3: structural surgery -------------------------------------
  flops::ModelCost before = flops::count(model);
  core::apply_selection(model, selection);
  flops::ModelCost after = flops::count(model);
  const flops::PruningReport report = flops::compare(before, after);
  std::cout << "after surgery: params " << report.params_before << " -> "
            << report.params_after << ", FLOPs -" << report.flops_reduction() * 100 << "%\n";

  // --- step 4: fine-tune to recover accuracy ---------------------------
  nn::TrainConfig ft;
  ft.epochs = 3;
  ft.batch_size = 32;
  ft.sgd.lr = 0.02f;
  nn::train(model, dataset.train, ft, &reg);
  std::cout << "fine-tuned accuracy " << nn::evaluate(model, dataset.test) * 100 << "%\n";
  return 0;
}
