// Running the paper's pipeline on REAL CIFAR data.
//
//   $ ./build/examples/cifar_real /path/to/cifar-10-batches-bin [epochs]
//
// Everything in this repository runs on the synthetic substitute by
// default because no dataset ships with it; this example is the bridge
// to the paper's actual setting. Point it at the extracted CIFAR-10
// binary distribution (data_batch_1..5.bin + test_batch.bin) and it
// trains VGG16 with the modified cost and runs class-aware pruning.
// Without an argument it prints instructions and exits cleanly, so the
// binary is safe in automated runs.
#include <iostream>

#include "data/cifar_binary.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"

int main(int argc, char** argv) {
  using namespace capr;
  if (argc < 2) {
    std::cout
        << "usage: cifar_real <dir-with-cifar10-binaries> [epochs]\n\n"
           "Download and extract the CIFAR-10 binary version\n"
           "(cifar-10-binary.tar.gz), then pass the directory containing\n"
           "data_batch_1.bin ... test_batch.bin. Training full VGG16 on CPU\n"
           "is slow; start with few epochs to validate the pipeline.\n";
    return 0;
  }
  const std::string dir = argv[1];
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 2;

  std::cout << "loading CIFAR-10 from " << dir << " ..." << std::endl;
  data::CifarBinaryConfig dcfg;
  dcfg.directory = dir;
  dcfg.num_classes = 10;
  const data::CifarBinary cifar = data::load_cifar_binary(dcfg);
  std::cout << "train: " << cifar.train.size() << " images, test: " << cifar.test.size()
            << "\n";

  models::BuildConfig mcfg;
  mcfg.num_classes = 10;
  mcfg.input_size = 32;
  mcfg.width_mult = 1.0f;  // the paper's full-width VGG16
  nn::Model model = models::make_vgg16(mcfg);
  std::cout << "VGG16: " << model.parameter_count() << " parameters\n";

  // Paper Section IV hyperparameters.
  nn::TrainConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.batch_size = 256;
  tcfg.sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 5e-4f};
  tcfg.augment = true;
  tcfg.on_epoch = [](int epoch, float loss) {
    std::cout << "epoch " << epoch << ": train loss " << loss << std::endl;
  };
  core::ModifiedLoss reg;  // lambda1 = 1e-4, lambda2 = 1e-2
  nn::train(model, cifar.train, tcfg, &reg);
  std::cout << "test accuracy " << nn::evaluate(model, cifar.test) * 100 << "%\n";

  strategy::ClassAwareStrategyConfig scfg;  // paper defaults: M=10, thr 3
  scfg.importance.images_per_class = 10;
  strategy::ClassAwareStrategy strat(scfg);
  strategy::StrategyRunConfig rcfg;  // 10%/iter
  rcfg.finetune.epochs = std::max(1, epochs / 2);
  rcfg.finetune.batch_size = 256;
  rcfg.finetune.sgd.lr = 0.001f;
  rcfg.recovery_rounds = 2;
  rcfg.max_iterations = 5;
  rcfg.on_iteration = [](const strategy::IterationRecord& it) {
    std::cout << "prune iter " << it.iteration << ": -" << it.filters_removed
              << " filters, acc " << it.accuracy_after_finetune * 100 << "%\n";
  };
  const strategy::StrategyRunResult res =
      strategy::run_strategy(model, strat, cifar.train, cifar.test, rcfg);
  std::cout << "pruning ratio " << res.report.pruning_ratio() * 100 << "%, FLOPs -"
            << res.report.flops_reduction() * 100 << "%, accuracy "
            << res.final_accuracy * 100 << "%\n";
  return 0;
}
