// Reusable per-worker scratch buffers for the hot kernels.
//
// The im2col/GEMM lowering needs large temporaries (column matrices,
// packed panels, per-thread gradient accumulators). Allocating them per
// call dominated small-batch conv cost; a ScratchArena owns one set of
// monotonically growing buffers per worker slot so steady-state forward/
// backward passes perform no allocation at all.
//
// Thread-safety contract: prepare(workers) must be called before a
// parallel region; afterwards each worker may only touch its own tid's
// buffers. Buffers are never shrunk and never freed until the arena dies,
// so pointers returned by floats() stay valid for the whole parallel
// region (but are invalidated by the next same-slot request with a larger
// count).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace capr {

/// Scratch space of one tiled-GEMM invocation (packed panels plus a
/// transpose buffer for the strong-zero fallback). Reusable across calls;
/// buffers grow monotonically. See gemm_tiled.h.
struct GemmScratch {
  std::vector<float> apack;
  std::vector<float> bpack;
  std::vector<float> tpose;
  // Per-worker A-pack buffers for split-M (one per worker slot, grown
  // on first use and reused across calls so a warmed steady state
  // performs no allocation even when the GEMM threads).
  std::vector<std::vector<float>> wapack;
};

/// Aggregate view over every live ScratchArena in the process, taken
/// from the mutex-guarded registry (scratch.cpp). Lets capacity planning
/// for a worker fleet ask "how much scratch is resident right now?"
/// without threading a handle to every arena.
struct ArenaStats {
  int64_t arenas = 0;           // live (constructed, not yet destroyed)
  int64_t resident_floats = 0;  // sum of slot-buffer floats across them
};

/// Snapshot of the process-wide arena registry. Thread-safe.
ArenaStats arena_stats();

/// Per-worker scratch buffers, reused across calls (see file comment).
/// Every arena registers itself in a process-wide registry on
/// construction and leaves it on destruction; arena_stats() aggregates
/// the registry under its mutex.
class ScratchArena {
 public:
  ScratchArena();
  ~ScratchArena();
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  /// Moves transfer the buffers and the resident count; the moved-from
  /// arena stays registered (it is still a live object) but empty.
  ScratchArena(ScratchArena&& other) noexcept;
  ScratchArena& operator=(ScratchArena&& other) noexcept;

  /// Ensures slots for worker ids [0, workers) exist. Must be called from
  /// the owning thread BEFORE the parallel region that uses them.
  void prepare(int workers);

  /// Uninitialised buffer of at least `count` floats for (tid, slot).
  /// tid must be below the last prepare() count; slots are small dense
  /// indices (0, 1, 2, ...) chosen by the caller.
  float* floats(int tid, int slot, int64_t count);

  /// Tiled-GEMM scratch owned by worker `tid`.
  GemmScratch& gemm(int tid);

  /// Floats currently held by this arena's slot buffers (grow-only, so
  /// this is also the high-water mark). Readable from any thread.
  int64_t resident_floats() const { return resident_.load(std::memory_order_relaxed); }

 private:
  struct Worker {
    std::vector<std::vector<float>> slots;
    GemmScratch gemm;
  };
  // unique_ptr keeps Worker objects stable if prepare() grows the vector
  // between parallel regions.
  std::vector<std::unique_ptr<Worker>> workers_;
  // Atomic so arena_stats() may read while a parallel region grows
  // buffers; the registry mutex guards membership, not this counter.
  std::atomic<int64_t> resident_{0};
};

}  // namespace capr
