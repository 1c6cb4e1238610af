#pragma once

#include <atomic>
#include <cstdint>

#include "util/backoff.hpp"
#include "util/lock_stats.hpp"

namespace condyn {

/// Readers–writer spinlock (writer-preferring), used for variants (2) and
/// (7). State encoding: bit 31 = writer held or pending, low bits = active
/// reader count. The paper observes this lock does not scale — reproducing
/// that observation is the point of including it.
class RwSpinLock {
 public:
  RwSpinLock() noexcept = default;
  RwSpinLock(const RwSpinLock&) = delete;
  RwSpinLock& operator=(const RwSpinLock&) = delete;

  void lock() noexcept {
    if (try_lock()) {
      lock_stats::add_acquisition(false);
      return;
    }
    // Announce writer intent so readers stop entering, then wait for them.
    const uint64_t t0 = lock_stats::now_ns();
    Backoff backoff;
    for (;;) {
      uint32_t s = state_.load(std::memory_order_relaxed);
      if ((s & kWriter) == 0 &&
          state_.compare_exchange_weak(s, s | kWriter,
                                       std::memory_order_acquire)) {
        break;
      }
      backoff.pause();
    }
    backoff.reset();
    while ((state_.load(std::memory_order_acquire) & kReaderMask) != 0)
      backoff.pause();
    lock_stats::add_wait(lock_stats::now_ns() - t0);
    lock_stats::add_acquisition(true);
  }

  void unlock() noexcept {
    state_.fetch_and(~kWriter, std::memory_order_release);
  }

  void lock_shared() noexcept {
    uint32_t s = state_.load(std::memory_order_relaxed);
    if ((s & kWriter) == 0 &&
        state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire)) {
      return;
    }
    const uint64_t t0 = lock_stats::now_ns();
    Backoff backoff;
    for (;;) {
      s = state_.load(std::memory_order_relaxed);
      if ((s & kWriter) == 0 &&
          state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire)) {
        break;
      }
      backoff.pause();
    }
    lock_stats::add_wait(lock_stats::now_ns() - t0);
  }

  void unlock_shared() noexcept {
    state_.fetch_sub(1, std::memory_order_release);
  }

  bool try_lock() noexcept {
    uint32_t s = state_.load(std::memory_order_relaxed);
    return s == 0 &&
           state_.compare_exchange_strong(s, kWriter, std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kWriter = 1u << 31;
  static constexpr uint32_t kReaderMask = kWriter - 1;
  std::atomic<uint32_t> state_{0};
};

}  // namespace condyn
