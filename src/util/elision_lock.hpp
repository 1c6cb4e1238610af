#pragma once

#include <atomic>

#include "util/backoff.hpp"
#include "util/lock_stats.hpp"

namespace condyn {

/// Speculative lock elision (Rajwar & Goodman) on top of Intel RTM, with a
/// plain spinlock fallback — used by variants (4), (5) and (11).
///
/// Behaviour:
///  * If the binary was built with CONDYN_ENABLE_RTM *and* the CPU reports
///    RTM support at runtime, lock() first attempts to run the critical
///    section as a hardware transaction that merely reads the lock word
///    (adding it to the read set); conflicting writers abort the transaction
///    and the code retries, eventually falling back to a real acquisition.
///  * Otherwise the lock degenerates to a TTAS spinlock. The paper itself
///    reports that for the full algorithm "the performances match" between
///    HTM and plain locking; on non-RTM hosts variants (4)/(5)/(11)
///    reproduce exactly that degenerate behaviour (see DESIGN.md §2).
///
/// unlock() must be called by the same thread; nesting is not supported
/// (matches how the variants use their global/component locks).
class ElisionLock {
 public:
  ElisionLock() noexcept = default;
  ElisionLock(const ElisionLock&) = delete;
  ElisionLock& operator=(const ElisionLock&) = delete;

  /// True when this process can actually elide (RTM compiled in + CPU flag).
  static bool htm_available() noexcept;

  void lock() noexcept;
  void unlock() noexcept;
  bool try_lock() noexcept;

  void lock_shared() noexcept { lock(); }
  void unlock_shared() noexcept { unlock(); }

 private:
  bool lock_is_free() const noexcept {
    return !locked_.load(std::memory_order_relaxed);
  }
  void acquire_real() noexcept;

  std::atomic<bool> locked_{false};
  // Set while the *calling thread* holds this lock transactionally.
  static thread_local bool t_in_txn_;
};

}  // namespace condyn
