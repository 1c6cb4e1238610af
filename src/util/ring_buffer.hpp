#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace condyn {

/// Bounded lock-free multi-producer / single-consumer ring buffer — the
/// hand-off between ingest producers and the group-commit applier thread
/// (DESIGN.md §11.1). Vyukov's bounded-queue scheme: every cell carries a
/// sequence word that encodes which "lap" of the ring it belongs to, so
/// producers claim slots with one fetch_add-style CAS on the enqueue
/// position and never touch the dequeue position (and vice versa) — full
/// and empty are discovered from the cell itself, not from a shared count.
///
/// Cell protocol (capacity C, all positions monotonically increasing):
///   * seq == pos        the cell is free for the producer claiming `pos`
///   * seq == pos + 1    the cell holds the element enqueued at `pos`
///   * consumer at `pos` waits for seq == pos + 1, takes the value, then
///     releases the cell for the *next lap* by storing seq = pos + C
/// The acquire load of seq / release store of seq is the only
/// synchronization an element needs; head and tail live on their own cache
/// lines so producers and the consumer do not false-share.
///
/// Single consumer: try_pop/pop_batch must only ever be called from one
/// thread at a time (the applier). Producers may call try_push from any
/// number of threads.
template <typename T>
class MpscRingBuffer {
 public:
  /// Capacity is rounded up to a power of two (masked index arithmetic).
  explicit MpscRingBuffer(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRingBuffer(const MpscRingBuffer&) = delete;
  MpscRingBuffer& operator=(const MpscRingBuffer&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Multi-producer enqueue. False when the ring is full (the caller's
  /// backpressure policy decides what to do about that).
  bool try_push(const T& value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        // Cell is free on this lap: claim `pos` (CAS loops on contention
        // with the refreshed position; no ABA because positions only grow).
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        // A whole lap behind: the consumer has not freed this cell — full.
        return false;
      } else {
        // Another producer claimed `pos`; catch up and retry.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Single-consumer dequeue. False when the ring is empty *or* the element
  /// at the head is still being written by its producer (treated as empty —
  /// it will be visible on the next call).
  bool try_pop(T& out) {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) <
        0) {
      return false;
    }
    out = cell.value;
    cell.seq.store(pos + capacity(), std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Drain up to `max` elements into `out` (appended; `out` is not cleared).
  /// Returns the number taken. Single consumer only.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    T item;
    while (n < max && try_pop(item)) {
      out.push_back(item);
      ++n;
    }
    return n;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  /// Producers CAS this; consumer never touches it. Own cache line.
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  /// Consumer-private cursor; producers never touch it. Own cache line.
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace condyn
