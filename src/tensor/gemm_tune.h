// The tiled GEMM's kernel configuration: cache blocking, micro-kernel
// height and parallelization strategy, resolved by one pure function.
//
// Every tiled call runs one fixed blocking, MC=72, KC=256, MR=6 (the
// panel width NR is fixed at 16 by the packed-B layout). Problems of at
// least 2*M*K*N = 2^23 FLOPs split their row blocks across workers;
// smaller ones run serial. resolve_gemm_config() returns exactly that;
// it reads no global state, so it needs no lock. compile() bakes the
// same config into every pre-packed conv (pack_a_full), and the packed
// executor replays what the PackedA records.
//
// Determinism contract: the tiled kernel accumulates every C element in
// strictly k-ascending order, continuing the chain across k-blocks
// (gemm_tiled.cpp pre-loads C into the accumulators). That makes the
// result bitwise INVARIANT to mc, kc, mr, the strategy and the worker
// count, so an explicit pack_a_full config changes only speed, never
// bits (pinned by tests/gemm_tiled_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace capr {

/// How the tiled kernel distributes one GEMM over workers. Mirrors
/// tt-metal's ConvOpParallelizationStrategy: an explicit enum carried
/// on the config, not a global heuristic.
enum class GemmParallel {
  kNoParallel,  // serial: small problems where threading overhead loses
  kSplitM,      // row blocks of C across workers
};

const char* to_string(GemmParallel s);  // "no-parallel" | "split-m"

/// Transpose variant of the call site.
enum class GemmVariant { kNN, kNT, kTN };

/// One kernel configuration. The packed-B panel width (NR) is fixed at
/// kPanelWidth by the compiled-plan layouts; mr is the only micro-kernel
/// degree of freedom (see legal_gemm_mr()).
struct GemmTuneConfig {
  int64_t mc = 72;
  int64_t kc = 256;
  int64_t mr = 6;
  GemmParallel strategy = GemmParallel::kSplitM;
};

/// Micro-kernel heights with a compiled register-tile variant.
const std::vector<int64_t>& legal_gemm_mr();

/// Bounds for cache blocking that gemm_config_valid accepts.
inline constexpr int64_t kGemmTuneMinMc = 1;
inline constexpr int64_t kGemmTuneMaxMc = 4096;
inline constexpr int64_t kGemmTuneMinKc = 8;
inline constexpr int64_t kGemmTuneMaxKc = 8192;

/// Validates mc/kc ranges and the mr legality. On failure returns false
/// and (optionally) a human reason.
bool gemm_config_valid(const GemmTuneConfig& cfg, std::string* why = nullptr);

/// The config every tiled call on (v, M, K, N) runs: MC=72/KC=256/MR=6,
/// split-M when 2*M*K*N >= 2^23, serial below. Pure and lock-free.
GemmTuneConfig resolve_gemm_config(GemmVariant v, int64_t M, int64_t K, int64_t N);

}  // namespace capr
