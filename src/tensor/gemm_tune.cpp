#include "tensor/gemm_tune.h"

namespace capr {
namespace {

// Below this many FLOPs (2*M*K*N) threading overhead outweighs the
// split, so the call runs serial.
constexpr int64_t kParallelFlops = int64_t(1) << 23;

}  // namespace

const char* to_string(GemmParallel s) {
  switch (s) {
    case GemmParallel::kNoParallel: return "no-parallel";
    case GemmParallel::kSplitM: return "split-m";
  }
  return "no-parallel";
}

const std::vector<int64_t>& legal_gemm_mr() {
  // Must match the instantiated micro_kernel_t<> variants in
  // gemm_tiled.cpp; extend both together.
  static const std::vector<int64_t> kLegal = {4, 6, 8};
  return kLegal;
}

bool gemm_config_valid(const GemmTuneConfig& cfg, std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (cfg.mc < kGemmTuneMinMc || cfg.mc > kGemmTuneMaxMc) {
    return fail("mc " + std::to_string(cfg.mc) + " outside [" + std::to_string(kGemmTuneMinMc) +
                ", " + std::to_string(kGemmTuneMaxMc) + "]");
  }
  if (cfg.kc < kGemmTuneMinKc || cfg.kc > kGemmTuneMaxKc) {
    return fail("kc " + std::to_string(cfg.kc) + " outside [" + std::to_string(kGemmTuneMinKc) +
                ", " + std::to_string(kGemmTuneMaxKc) + "]");
  }
  bool mr_ok = false;
  for (int64_t mr : legal_gemm_mr()) mr_ok = mr_ok || mr == cfg.mr;
  if (!mr_ok) {
    return fail("mr " + std::to_string(cfg.mr) + " has no compiled micro-kernel variant");
  }
  return true;
}

GemmTuneConfig resolve_gemm_config(GemmVariant /*v*/, int64_t M, int64_t K, int64_t N) {
  GemmTuneConfig cfg;  // MC=72, KC=256, MR=6
  cfg.strategy =
      2 * M * K * N >= kParallelFlops ? GemmParallel::kSplitM : GemmParallel::kNoParallel;
  return cfg;
}

}  // namespace capr
