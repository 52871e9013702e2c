// Optimizers.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/layer.h"

namespace capr::nn {

/// SGD with classical momentum and decoupled-from-loss L2 weight decay,
/// matching the paper's training setup (lr 0.01, momentum 0.9, wd 5e-4).
///
/// Momentum buffers are keyed by Param address; pruning surgery reallocates
/// parameter tensors, after which `reset_state()` must be called (or a
/// fresh SGD used: nn::train builds one per call, which is how
/// strategy::run_strategy fine-tunes after every surgery step).
class SGD {
 public:
  struct Config {
    float lr = 0.01f;
    float momentum = 0.9f;
    float weight_decay = 5e-4f;
  };

  explicit SGD(Config cfg) : cfg_(cfg) {}

  /// One update step over the given parameters; does not zero grads.
  void step(const std::vector<Param*>& params);

  /// Sets all gradients to zero.
  static void zero_grad(const std::vector<Param*>& params);

  /// Drops all momentum buffers (required after structural surgery).
  void reset_state() { velocity_.clear(); }

  Config& config() { return cfg_; }

 private:
  Config cfg_;
  std::unordered_map<const Param*, Tensor> velocity_;
};

}  // namespace capr::nn
