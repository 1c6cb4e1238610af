#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"
#include "util/ebr.hpp"
#include "util/pool_stats.hpp"
#include "util/spinlock.hpp"

namespace condyn {

/// Per-thread, cacheline-aware object pool with EBR-driven recycling
/// (DESIGN.md §7.1).
///
/// The hot paths of every variant allocate small fixed-size objects at op
/// rate: ETT arc nodes on each spanning insert, multiset cells on each
/// non-spanning insert, removal descriptors and proposal cells on each
/// spanning remove. The seed paid the general-purpose allocator for each of
/// them and retired them one `delete` at a time through EBR. This pool turns
/// that traffic into pointer pushes:
///
///  * allocation pops the calling thread's free list; a miss bumps the
///    thread's current slab (kSlabObjects objects per allocator call); only
///    an empty slab reaches `operator new`;
///  * `retire(p)` routes destruction through the EBR grace period exactly
///    like `ebr::retire`, but the reclamation callback *recycles* the cell
///    onto the reclaiming thread's free list instead of freeing it;
///  * `destroy(p)` recycles immediately (for objects no concurrent reader
///    can hold: creation-race losers, teardown of quiescent structures);
///  * free lists overflowing kLocalCap spill half to a shared list, which
///    allocation-heavy threads drain before touching a fresh slab — so
///    producer/consumer thread imbalance cannot grow memory unboundedly.
///
/// Slabs normally live until process exit (the pool instance is a leaky
/// singleton): recycled objects may be owned by any structure on any thread,
/// so slab lifetime cannot be tied to any structure or thread. The one safe
/// exception is decay(): a slab whose every cell sits on the shared free
/// list is provably owned by nobody and may be returned to the OS once it
/// has stayed that idle for DC_POOL_DECAY EBR epochs — the release valve
/// that lets a long-lived service's high-water churn footprint drain back
/// down. Resident bytes are tracked in pool_stats::resident_bytes().
///
/// `Align` selects the object stride: tour nodes use kCacheLine so hot
/// treap nodes never false-share (ett::Node fills one line, ett::Level0Vertex
/// two); the small cells keep natural alignment
/// (a 16-byte cell per cache line would quadruple the footprint for no
/// contention win — cells are written once and scanned).
///
/// With DC_POOL=0 every create() is a plain counted `new` and every recycle
/// a counted `delete` — the allocation behaviour of the seed, used as the
/// baseline of bench_suite's `memory` section.
template <typename T, std::size_t Align = alignof(T)>
class NodePool {
 public:
  static constexpr std::size_t kSlabObjects = 256;
  static constexpr std::size_t kLocalCap = 128;

  /// Object stride: big objects get whole cache lines (no false sharing),
  /// small ones pack at their natural alignment.
  static constexpr std::size_t stride() noexcept {
    constexpr std::size_t base = sizeof(T) > Align ? sizeof(T) : Align;
    return (base + Align - 1) / Align * Align;
  }

  static NodePool& instance() {
    // Leaky singleton: recycled objects and retire callbacks may outlive any
    // deterministic destruction point (EBR drains at static teardown), so
    // the pool is never destroyed. Slabs stay reachable via the instance —
    // LeakSanitizer sees no leak; the OS reclaims at exit.
    static NodePool* p = new NodePool();
    return *p;
  }

  template <typename... Args>
  T* create(Args&&... args) {
    auto& st = pool_stats::local();
    if (!pool_stats::pooling_enabled()) {
      ++st.allocator_calls;
      st.bytes_allocated += sizeof(T);
      return new T(std::forward<Args>(args)...);
    }
    void* raw = pop_local();
    if (raw != nullptr) {
      ++st.pool_reused;
    } else {
      raw = carve(st);
      ++st.pool_fresh;
    }
    return ::new (raw) T(std::forward<Args>(args)...);
  }

  /// Destroy and recycle immediately. Only safe when no concurrent reader
  /// can still hold `p` (creation-race losers, quiescent teardown).
  void destroy(T* p) {
    if (p == nullptr) return;
    auto& st = pool_stats::local();
    if (!pool_stats::pooling_enabled()) {
      ++st.allocator_frees;
      delete p;
      return;
    }
    p->~T();
    push_local(p);
    ++st.pool_recycled;
  }

  /// Retire through the EBR grace period (instead of ebr::retire + delete):
  /// after two epoch advances the object is destroyed and its cell returns
  /// to the free list of whichever thread flushes the bucket.
  void retire(T* p) {
    ebr::Domain::global().retire(
        static_cast<void*>(p),
        [](void* q) { NodePool::instance().destroy(static_cast<T*>(q)); });
  }

  /// Spill the calling thread's cached free cells to the shared list, so a
  /// subsequent decay() sees them. Quiesce points (and the decay test) call
  /// this; threads that simply exit spill automatically.
  void flush_local() {
    Local& st = local();
    if (st.head != nullptr) spill_all(st);
  }

  /// DC_POOL_DECAY: EBR epochs a fully-idle slab must age before decay()
  /// frees it (default 2). Pure hysteresis policy — safety comes from the
  /// all-cells-on-the-shared-list check, not from the age.
  static uint64_t decay_epochs() noexcept {
    static const uint64_t n = [] {
      const char* e = std::getenv("DC_POOL_DECAY");
      return e != nullptr ? std::strtoull(e, nullptr, 10) : uint64_t{2};
    }();
    return n;
  }

  std::size_t decay() { return decay(decay_epochs()); }

  /// Free fully-idle slabs; returns how many were released to the OS.
  ///
  /// A slab is freeable exactly when all kSlabObjects of its cells sit on
  /// the shared free list: then no cell is a live object, none is cached on
  /// a thread's local list, none is pending in an EBR bucket, and the bump
  /// allocator is done with it (a partially-carved slab has handed out
  /// fewer than kSlabObjects cells, so it can never reach the full count).
  /// Both locks are held from the count through the unlink to the free, so
  /// no cell can be popped in between. The epoch stamp adds the N-quiescent-
  /// epochs hysteresis: a slab is freed only when two decay() passes at
  /// least min_idle_epochs of EBR epoch apart both saw it fully idle, with
  /// any activity between passes resetting the stamp at the next pass.
  std::size_t decay(uint64_t min_idle_epochs) {
    if (!pool_stats::pooling_enabled()) return 0;
    std::lock_guard<SpinLock> lk_shared(shared_mu_);
    std::lock_guard<SpinLock> lk_slabs(slabs_mu_);  // order: shared → slabs
    if (slabs_.empty()) return 0;
    constexpr std::size_t kNone = ~std::size_t{0};
    const std::size_t bytes = stride() * kSlabObjects;

    // Sorted base index so each free cell finds its owning slab in
    // O(log #slabs).
    std::vector<std::pair<std::byte*, std::size_t>> order;
    order.reserve(slabs_.size());
    for (std::size_t i = 0; i < slabs_.size(); ++i)
      order.emplace_back(slabs_[i].base, i);
    std::sort(order.begin(), order.end());
    auto owner = [&](void* p) -> std::size_t {
      auto* cell = static_cast<std::byte*>(p);
      auto it = std::upper_bound(
          order.begin(), order.end(), cell,
          [](std::byte* c, const auto& s) { return c < s.first; });
      if (it == order.begin()) return kNone;
      --it;
      return cell < it->first + bytes ? it->second : kNone;
    };

    std::vector<std::size_t> counts(slabs_.size(), 0);
    for (FreeNode* n = shared_head_; n != nullptr; n = n->next) {
      const std::size_t i = owner(n);
      if (i != kNone) ++counts[i];
    }

    const uint64_t now = ebr::Domain::global().epoch();
    std::vector<bool> doomed(slabs_.size(), false);
    std::size_t freed = 0;
    for (std::size_t i = 0; i < slabs_.size(); ++i) {
      if (counts[i] != kSlabObjects) {
        slabs_[i].idle_since = 0;
        continue;
      }
      if (slabs_[i].idle_since == 0) slabs_[i].idle_since = now;
      if (now - slabs_[i].idle_since >= min_idle_epochs) {
        doomed[i] = true;
        ++freed;
      }
    }
    if (freed == 0) return 0;

    // Unlink every cell of a doomed slab, then release the slabs.
    FreeNode** link = &shared_head_;
    while (*link != nullptr) {
      const std::size_t i = owner(*link);
      if (i != kNone && doomed[i]) {
        *link = (*link)->next;
        --shared_count_;
      } else {
        link = &(*link)->next;
      }
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < slabs_.size(); ++i) {
      if (doomed[i]) {
        ::operator delete(slabs_[i].base, std::align_val_t{slab_align()});
        pool_stats::add_resident(-static_cast<int64_t>(bytes));
        continue;
      }
      slabs_[w++] = slabs_[i];
    }
    slabs_.resize(w);
    return freed;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static_assert(stride() >= sizeof(FreeNode),
                "object storage must hold a free-list link");

  /// Per-thread cache. On thread exit the remaining cells spill to the
  /// shared list so objects recycled by short-lived threads stay usable.
  struct Local {
    NodePool* owner = nullptr;
    FreeNode* head = nullptr;
    std::size_t count = 0;
    std::byte* slab_cur = nullptr;
    std::byte* slab_end = nullptr;

    ~Local() {
      if (owner != nullptr && head != nullptr) {
        owner->spill_all(*this);
      }
      // The partially-carved slab tail is abandoned (its slab stays
      // registered in slabs_ and resident); at most stride()*kSlabObjects
      // bytes per exiting thread.
    }
  };

  Local& local() {
    static thread_local Local st;
    if (st.owner == nullptr) st.owner = this;
    return st;
  }

  void* pop_local() {
    Local& st = local();
    if (st.head == nullptr && !refill_from_shared(st)) return nullptr;
    FreeNode* n = st.head;
    st.head = n->next;
    --st.count;
    return n;
  }

  void push_local(void* raw) {
    Local& st = local();
    auto* n = static_cast<FreeNode*>(raw);
    n->next = st.head;
    st.head = n;
    if (++st.count >= kLocalCap) spill_half(st);
  }

  void* carve(pool_stats::Counters& st_counters) {
    Local& st = local();
    if (st.slab_cur == st.slab_end) {
      const std::size_t bytes = stride() * kSlabObjects;
      st.slab_cur = static_cast<std::byte*>(
          ::operator new(bytes, std::align_val_t{slab_align()}));
      st.slab_end = st.slab_cur + bytes;
      ++st_counters.allocator_calls;
      st_counters.bytes_allocated += bytes;
      pool_stats::add_resident(static_cast<int64_t>(bytes));
      std::lock_guard<SpinLock> lk(slabs_mu_);
      slabs_.push_back({st.slab_cur, 0});
    }
    void* raw = st.slab_cur;
    st.slab_cur += stride();
    return raw;
  }

  bool refill_from_shared(Local& st) {
    std::lock_guard<SpinLock> lk(shared_mu_);
    if (shared_head_ == nullptr) return false;
    // Take up to half the local cap in one go.
    std::size_t n = 0;
    FreeNode* tail = shared_head_;
    while (tail->next != nullptr && n + 1 < kLocalCap / 2) {
      tail = tail->next;
      ++n;
    }
    st.head = shared_head_;
    shared_head_ = tail->next;
    tail->next = nullptr;
    st.count = n + 1;
    shared_count_ -= st.count;
    return true;
  }

  void spill_half(Local& st) {
    FreeNode* keep = st.head;
    for (std::size_t i = 1; i < kLocalCap / 2; ++i) keep = keep->next;
    FreeNode* spill = keep->next;
    keep->next = nullptr;
    const std::size_t spilled = st.count - kLocalCap / 2;
    st.count = kLocalCap / 2;
    FreeNode* tail = spill;
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard<SpinLock> lk(shared_mu_);
    tail->next = shared_head_;
    shared_head_ = spill;
    shared_count_ += spilled;
  }

  void spill_all(Local& st) {
    FreeNode* tail = st.head;
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard<SpinLock> lk(shared_mu_);
    tail->next = shared_head_;
    shared_head_ = st.head;
    shared_count_ += st.count;
    st.head = nullptr;
    st.count = 0;
  }

  static constexpr std::size_t slab_align() noexcept {
    return Align > kCacheLine ? Align : kCacheLine;
  }

  SpinLock shared_mu_;
  FreeNode* shared_head_ = nullptr;
  std::size_t shared_count_ = 0;

  /// Registry entry: keeps the slab LSan-reachable and carries the decay
  /// hysteresis stamp (the EBR epoch at which the slab was first observed
  /// fully idle; 0 = not currently idle — the global epoch starts at 2).
  struct SlabInfo {
    std::byte* base;
    uint64_t idle_since;
  };

  SpinLock slabs_mu_;
  std::vector<SlabInfo> slabs_;
};

}  // namespace condyn
