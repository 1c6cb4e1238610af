#pragma once

#include <atomic>
#include <memory>

#include "api/dynamic_connectivity.hpp"
#include "graph/graph.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/spinlock.hpp"
#include "util/thread_index.hpp"

namespace condyn::combining {

/// Publication-slot substrate shared by the flat-combining (Hendler et al.)
/// and parallel-combining (Aksenov et al.) baselines. Each thread owns one
/// cache-line-private slot indexed by its process-wide thread_index(); a
/// thread publishes its operation, and whichever thread holds the combiner
/// lock executes pending operations on behalf of everyone.
enum SlotState : uint32_t {
  kEmpty = 0,
  kPending = 1,  ///< published, waiting for a combiner
  kGo = 2,       ///< parallel-combining read phase: owner runs its own read
  kDone = 3,     ///< result available
};

struct alignas(kCacheLine) Slot {
  std::atomic<uint32_t> state{kEmpty};
  /// The published single op (unused when `batch` is set).
  Op op;
  /// Raw result of the published op: 0/1 for the boolean kinds, the
  /// component size / representative id for the value queries.
  uint64_t result = 0;
  /// Batch publication, marked by batch != nullptr: the whole batch rides
  /// in one slot, so a combiner pass costs one synchronization per *batch*
  /// per thread instead of one per operation. The owner keeps
  /// `batch`/`batch_out` alive until the combiner flips the slot to kDone,
  /// then clears `batch`. `batch_read_only` (set by the owner at
  /// publication) lets parallel combining release query-only batches into
  /// its parallel read phase instead of the sequential update phase.
  const Op* batch = nullptr;
  uint32_t batch_len = 0;
  BatchResult* batch_out = nullptr;
  bool batch_read_only = false;
};

class SlotArray {
 public:
  SlotArray() : slots_(std::make_unique<Slot[]>(kMaxThreadIndex)) {}

  Slot& mine() noexcept {
    const unsigned idx = thread_index() % kMaxThreadIndex;
    // Publish a high-water mark so combiners scan only slots that can
    // possibly be occupied — with the process-wide id space this is what
    // keeps the combiner pass O(#threads ever seen), not O(capacity).
    unsigned hw = high_water_.load(std::memory_order_relaxed);
    while (hw < idx + 1 && !high_water_.compare_exchange_weak(
                               hw, idx + 1, std::memory_order_relaxed)) {
    }
    return slots_[idx];
  }
  Slot& at(unsigned i) noexcept { return slots_[i]; }
  /// Upper bound (exclusive) of slots any thread has ever published to.
  unsigned active_size() const noexcept {
    return high_water_.load(std::memory_order_acquire);
  }
  static constexpr unsigned size() noexcept { return kMaxThreadIndex; }

 private:
  std::unique_ptr<Slot[]> slots_;
  std::atomic<unsigned> high_water_{0};
};

}  // namespace condyn::combining
