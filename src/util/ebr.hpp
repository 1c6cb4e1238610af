#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/cacheline.hpp"

namespace condyn::ebr {

/// Epoch-based memory reclamation.
///
/// The paper's implementation is in Kotlin, where the JVM GC guarantees that
/// a treap node or multiset cell unlinked by the writer stays alive while any
/// lock-free reader may still traverse it. This domain provides the same
/// guarantee natively (DESIGN.md §2): readers pin the current epoch for the
/// duration of a traversal; unlinked memory is retired and freed only after
/// two epoch advances, which implies every pinned traversal that could have
/// seen it has finished.
///
/// Usage:
///   auto guard = ebr::pin();            // in every lock-free read section
///   ebr::retire(node);                  // instead of delete, by the unlinker
///
/// Threads register implicitly on first pin/retire and release their slot at
/// thread exit; leftovers are adopted through a global orphan list.
class Domain {
 public:
  static constexpr unsigned kMaxThreads = 256;

  Domain() noexcept = default;
  ~Domain();
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Process-wide domain shared by all concurrent structures.
  static Domain& global() noexcept;

  /// RAII epoch pin. Re-entrant: nested guards on the same thread are free.
  class Guard {
   public:
    explicit Guard(Domain& d) noexcept;
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Domain& domain_;
    bool outer_;
  };

  /// Retire p; del(p) runs after a full grace period.
  void retire(void* p, void (*del)(void*));

  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p), [](void* q) { delete static_cast<T*>(q); });
  }

  /// Free *everything* retired so far, unconditionally. Only safe when no
  /// other thread is inside a Guard (tests / structure teardown use this).
  void drain();

  /// Diagnostics.
  uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kIdle = ~uint64_t{0};
  static constexpr std::size_t kAdvanceThreshold = 128;

  struct Retired {
    void* p;
    void (*del)(void*);
  };

  struct Bucket {
    uint64_t epoch_tag = 0;
    std::vector<Retired> items;
  };

  struct alignas(kCacheLine) Slot {
    std::atomic<uint64_t> epoch{kIdle};  // kIdle when not pinned
    std::atomic<bool> used{false};
  };

  struct LocalState;  // per-thread registration + retire buckets

  LocalState& local();
  unsigned acquire_slot();
  void release_slot(LocalState& st);
  bool try_advance() noexcept;
  void free_bucket(Bucket& b);
  void flush_eligible(LocalState& st);

  Slot slots_[kMaxThreads];
  std::atomic<uint64_t> global_epoch_{2};  // start >1 so tag 0 is "ancient"

  std::mutex orphan_mu_;
  std::vector<Bucket> orphans_;
};

/// Pin the global domain.
inline Domain::Guard pin() noexcept { return Domain::Guard(Domain::global()); }

template <typename T>
void retire(T* p) {
  Domain::global().retire(p);
}

}  // namespace condyn::ebr
