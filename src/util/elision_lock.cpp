#include "util/elision_lock.hpp"

#if defined(CONDYN_ENABLE_RTM) && defined(__RTM__)
#include <immintrin.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif
#define CONDYN_HAVE_RTM 1
#else
#define CONDYN_HAVE_RTM 0
#endif

namespace condyn {

thread_local bool ElisionLock::t_in_txn_ = false;

namespace {

bool detect_rtm() noexcept {
#if CONDYN_HAVE_RTM && defined(__x86_64__)
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 11)) != 0;  // RTM feature bit
#else
  return false;
#endif
}

}  // namespace

bool ElisionLock::htm_available() noexcept {
  static const bool avail = detect_rtm();
  return avail;
}

void ElisionLock::acquire_real() noexcept {
  if (!locked_.exchange(true, std::memory_order_acquire)) {
    lock_stats::add_acquisition(false);
    return;
  }
  const uint64_t t0 = lock_stats::now_ns();
  Backoff backoff;
  for (;;) {
    while (locked_.load(std::memory_order_relaxed)) backoff.pause();
    if (!locked_.exchange(true, std::memory_order_acquire)) break;
  }
  lock_stats::add_wait(lock_stats::now_ns() - t0);
  lock_stats::add_acquisition(true);
}

void ElisionLock::lock() noexcept {
#if CONDYN_HAVE_RTM
  if (htm_available()) {
    constexpr int kAttempts = 3;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      unsigned status = _xbegin();
      if (status == _XBEGIN_STARTED) {
        if (lock_is_free()) {  // lock word joins the read set
          t_in_txn_ = true;
          return;
        }
        _xabort(0xff);
      }
      // Explicit abort because the lock was held: wait for release first.
      if ((status & _XABORT_EXPLICIT) && _XABORT_CODE(status) == 0xff) {
        Backoff backoff;
        while (!lock_is_free()) backoff.pause();
      }
      if (!(status & _XABORT_RETRY) && !(status & _XABORT_EXPLICIT)) break;
    }
  }
#endif
  acquire_real();
}

void ElisionLock::unlock() noexcept {
#if CONDYN_HAVE_RTM
  if (t_in_txn_) {
    t_in_txn_ = false;
    _xend();
    return;
  }
#endif
  locked_.store(false, std::memory_order_release);
}

bool ElisionLock::try_lock() noexcept {
  return !locked_.load(std::memory_order_relaxed) &&
         !locked_.exchange(true, std::memory_order_acquire);
}

}  // namespace condyn
