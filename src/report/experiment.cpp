#include "report/experiment.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "nn/trainer.h"
#include "tensor/serialize.h"

namespace capr::report {

ExperimentScale smoke_scale() {
  ExperimentScale s;
  s.name = "smoke";
  s.image_size = 8;
  s.width_mult = 0.25f;
  s.train_per_class_c10 = 4;
  s.test_per_class_c10 = 2;
  s.train_per_class_c100 = 1;
  s.test_per_class_c100 = 1;
  s.pretrain_epochs = 1;
  s.finetune_epochs = 1;
  s.recovery_rounds = 1;
  s.max_iterations = 1;
  s.batch_size = 8;
  s.images_per_class_scoring = 2;
  return s;
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    }
  }
  return args;
}

ExperimentScale scale_from_env() {
  ExperimentScale s;
  const char* env = std::getenv("CAPR_SCALE");
  const std::string which = env ? env : "micro";
  if (which == "micro") {
    return s;  // defaults
  }
  if (which == "small") {
    s.name = "small";
    s.image_size = 16;
    s.width_mult = 0.375f;
    s.train_per_class_c10 = 96;
    s.test_per_class_c10 = 32;
    s.train_per_class_c100 = 16;
    s.test_per_class_c100 = 8;
    s.pretrain_epochs = 16;
    s.finetune_epochs = 4;
    s.max_iterations = 10;
    s.images_per_class_scoring = 10;
    s.noise_stddev = 0.3f;
    s.max_fraction_per_iter = 0.10f;
    s.max_accuracy_drop = 0.05f;
    s.tau_quantile = 0.85f;
    return s;
  }
  if (which == "full") {
    // Paper geometry: CIFAR-like 32x32, full width, M = 10 (Section IV),
    // absolute tau (long, strongly-regularized training polarises scores).
    s.name = "full";
    s.image_size = 32;
    s.width_mult = 1.0f;
    s.train_per_class_c10 = 5000;
    s.test_per_class_c10 = 1000;
    s.train_per_class_c100 = 500;
    s.test_per_class_c100 = 100;
    s.pretrain_epochs = 60;
    s.finetune_epochs = 130;
    s.max_iterations = 30;
    s.batch_size = 256;
    s.images_per_class_scoring = 10;
    s.noise_stddev = 0.25f;
    s.jitter = 0.35f;
    s.tau_mode = core::TauMode::kAbsolute;
    s.max_fraction_per_iter = 0.10f;
    s.max_accuracy_drop = 0.02f;
    return s;
  }
  std::cerr << "unknown CAPR_SCALE '" << which << "', using micro\n";
  return s;
}

Workbench prepare_workbench(const std::string& arch, int64_t classes,
                            const ExperimentScale& scale, float lambda1, float lambda2,
                            uint64_t seed) {
  const bool is_resnet = arch.rfind("resnet", 0) == 0;

  data::SyntheticCifarConfig dcfg;
  dcfg.num_classes = classes;
  dcfg.image_size = scale.image_size;
  dcfg.train_per_class =
      classes >= 100 ? scale.train_per_class_c100 : scale.train_per_class_c10;
  dcfg.test_per_class = classes >= 100 ? scale.test_per_class_c100 : scale.test_per_class_c10;
  // 100-class runs get a gentler task: at reduced widths/data the
  // 100-way problem otherwise saturates the network (no redundancy,
  // nothing prunable) — the pruning claims need an overparameterized
  // regime like the paper's full-width CIFAR-100 models.
  dcfg.noise_stddev = classes >= 100 ? scale.noise_stddev * 0.25f : scale.noise_stddev;
  dcfg.jitter = classes >= 100 ? scale.jitter * 0.7f : scale.jitter;
  dcfg.seed = seed;

  models::BuildConfig mcfg;
  mcfg.num_classes = classes;
  mcfg.input_size = scale.image_size;
  // ResNet channel counts (16/32/64) are 4-8x narrower than VGG's; at
  // reduced width multipliers they fall below usable capacity, so the
  // reduced scales give ResNets twice the multiplier. VGG on 100 classes
  // similarly needs extra width to reach the overparameterized regime.
  float width = scale.width_mult;
  if (scale.name != "full") {
    if (is_resnet) width *= 2.0f;
    if (!is_resnet && classes >= 100) width *= 1.5f;
  }
  mcfg.width_mult = width;
  mcfg.init_seed = seed * 31 + 7;

  Workbench wb;
  wb.model = models::make_model(arch, mcfg);
  wb.data = data::make_synthetic_cifar(dcfg);
  wb.factory = [arch, mcfg] { return models::make_model(arch, mcfg); };

  // Checkpoint cache: key on everything that affects the trained weights.
  const char* cache_env = std::getenv("CAPR_CACHE");
  const bool use_cache = !(cache_env != nullptr && std::string(cache_env) == "0");
  std::string cache_path;
  if (use_cache) {
    std::ostringstream key;
    key << "capr_cache/" << arch << "-c" << classes << "-" << scale.name << "-w"
        << mcfg.width_mult << "-s" << scale.image_size << "-l1_" << lambda1 << "-l2_"
        << lambda2 << "-seed" << seed << ".ckpt";
    cache_path = key.str();
    std::error_code ec;
    std::filesystem::create_directories("capr_cache", ec);
    if (!ec && std::filesystem::exists(cache_path)) {
      try {
        wb.model.load_state_dict(load_tensor_map(cache_path));
        wb.pretrained_accuracy = nn::evaluate(wb.model, wb.data.test);
        return wb;
      } catch (const std::exception& e) {
        std::cerr << "cache " << cache_path << " unusable (" << e.what()
                  << "); retraining\n";
      }
    }
  }

  // Paper Section IV training setup: SGD, lr 0.01 (we scale up slightly
  // for the short schedules), momentum 0.9, weight decay 5e-4. ResNets
  // converge more slowly than VGG at these tiny scales; give them a
  // longer schedule so the pre-pruning baseline is meaningful.
  nn::TrainConfig tcfg;
  tcfg.epochs = is_resnet ? scale.pretrain_epochs * 2 : scale.pretrain_epochs;
  tcfg.batch_size = scale.batch_size;
  tcfg.sgd.lr = scale.name == "full" ? 0.01f : 0.05f;
  tcfg.sgd.momentum = 0.9f;
  tcfg.sgd.weight_decay = 5e-4f;
  tcfg.lr_decay = 0.5f;
  tcfg.lr_decay_every = std::max(3, tcfg.epochs / 3);
  tcfg.loader_seed = seed;

  core::ModifiedLossConfig lcfg;
  lcfg.lambda1 = lambda1;
  lcfg.lambda2 = lambda2;
  core::ModifiedLoss reg(lcfg);
  nn::Regularizer* regp = (lambda1 == 0.0f && lambda2 == 0.0f) ? nullptr : &reg;
  nn::train(wb.model, wb.data.train, tcfg, regp);
  wb.pretrained_accuracy = nn::evaluate(wb.model, wb.data.test);
  if (use_cache) {
    try {
      save_tensor_map(cache_path, wb.model.state_dict());
    } catch (const std::exception& e) {
      std::cerr << "could not write cache " << cache_path << ": " << e.what() << "\n";
    }
  }
  return wb;
}

PrunerConfig pruner_config(const ExperimentScale& scale) {
  PrunerConfig cfg;
  cfg.strategy.importance.images_per_class = scale.images_per_class_scoring;
  cfg.strategy.importance.tau = scale.tau;
  cfg.strategy.importance.tau_mode = scale.tau_mode;
  cfg.strategy.importance.tau_quantile = scale.tau_quantile;
  cfg.strategy.mode = core::StrategyMode::kBoth;
  cfg.run.limits.max_fraction_per_iter = scale.max_fraction_per_iter;
  cfg.run.limits.max_layer_fraction_per_iter = scale.max_layer_fraction_per_iter;
  cfg.run.limits.min_filters_per_layer = 2;
  cfg.run.finetune.epochs = scale.finetune_epochs;
  cfg.run.finetune.batch_size = scale.batch_size;
  cfg.run.finetune.sgd.lr = 0.02f;
  cfg.run.finetune.sgd.momentum = 0.9f;
  cfg.run.finetune.sgd.weight_decay = 5e-4f;
  cfg.run.max_accuracy_drop = scale.max_accuracy_drop;
  cfg.run.recovery_rounds = scale.recovery_rounds;
  cfg.run.max_iterations = scale.max_iterations;
  return cfg;
}

void print_banner(const std::string& experiment, const std::string& what) {
  const ExperimentScale scale = scale_from_env();
  std::cout << "==========================================================\n"
            << experiment << ": " << what << "\n"
            << "Paper: Class-Aware Pruning for Efficient Neural Networks (DATE 2024)\n"
            << "Scale: " << scale.name << " (set CAPR_SCALE=micro|small|full)\n"
            << "Data : SyntheticCifar substitute (see DESIGN.md section 2)\n"
            << "==========================================================\n\n";
}

}  // namespace capr::report
