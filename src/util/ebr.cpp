#include "util/ebr.hpp"

#include <cassert>

namespace condyn::ebr {

/// Per-thread registration: slot index in the domain's announcement array,
/// re-entrancy depth, and the three retire buckets of the classic 3-epoch
/// scheme. Only the process-global domain is supported (the whole library
/// routes through Domain::global(); see header).
struct Domain::LocalState {
  Domain* domain = nullptr;
  unsigned slot = kMaxThreads;  // unregistered
  unsigned depth = 0;
  Bucket buckets[3];

  ~LocalState() {
    if (domain == nullptr || slot == kMaxThreads) return;
    domain->release_slot(*this);
  }
};

Domain& Domain::global() noexcept {
  static Domain d;
  return d;
}

Domain::~Domain() { drain(); }

Domain::LocalState& Domain::local() {
  static thread_local LocalState st;
  if (st.domain == nullptr) {
    st.domain = this;
    st.slot = acquire_slot();
  }
  assert(st.domain == this && "only Domain::global() is supported");
  return st;
}

unsigned Domain::acquire_slot() {
  for (;;) {
    for (unsigned i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!slots_[i].used.load(std::memory_order_relaxed) &&
          slots_[i].used.compare_exchange_strong(expected, true)) {
        slots_[i].epoch.store(kIdle, std::memory_order_seq_cst);
        return i;
      }
    }
    // All slots taken: extremely unlikely (kMaxThreads threads alive); spin
    // until one is released rather than aborting.
  }
}

void Domain::release_slot(LocalState& st) {
  // Hand unreclaimed items to the orphan list so another thread frees them.
  {
    std::lock_guard<std::mutex> lk(orphan_mu_);
    for (auto& b : st.buckets) {
      if (!b.items.empty()) orphans_.push_back(std::move(b));
    }
  }
  slots_[st.slot].epoch.store(kIdle, std::memory_order_seq_cst);
  slots_[st.slot].used.store(false, std::memory_order_seq_cst);
  st.slot = kMaxThreads;
}

Domain::Guard::Guard(Domain& d) noexcept : domain_(d), outer_(false) {
  LocalState& st = d.local();
  if (st.depth++ > 0) return;  // nested: already pinned
  outer_ = true;
  Slot& slot = d.slots_[st.slot];
  // Publish the epoch we observe; loop until the announcement matches the
  // global value so the grace-period argument holds under concurrent advance.
  uint64_t e = d.global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.epoch.store(e, std::memory_order_seq_cst);
    uint64_t g = d.global_epoch_.load(std::memory_order_seq_cst);
    if (g == e) break;
    e = g;
  }
}

Domain::Guard::~Guard() {
  LocalState& st = domain_.local();
  if (--st.depth > 0 || !outer_) return;
  domain_.slots_[st.slot].epoch.store(kIdle, std::memory_order_seq_cst);
}

void Domain::retire(void* p, void (*del)(void*)) {
  LocalState& st = local();
  const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  Bucket& b = st.buckets[e % 3];
  if (b.epoch_tag != e) {
    // Reusing the bucket means e >= old_tag + 3 > old_tag + 2: safe to free.
    free_bucket(b);
    b.epoch_tag = e;
  }
  b.items.push_back({p, del});
  if (b.items.size() >= kAdvanceThreshold) {
    if (try_advance()) flush_eligible(st);
  }
}

bool Domain::try_advance() noexcept {
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    if (!slots_[i].used.load(std::memory_order_seq_cst)) continue;
    const uint64_t pinned = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (pinned != kIdle && pinned != e) return false;  // straggler
  }
  if (!global_epoch_.compare_exchange_strong(e, e + 1,
                                             std::memory_order_seq_cst)) {
    return false;
  }
  // Opportunistically reclaim orphans left behind by exited threads.
  if (orphan_mu_.try_lock()) {
    const uint64_t g = e + 1;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (it->epoch_tag + 2 <= g) {
        free_bucket(*it);
        it = orphans_.erase(it);
      } else {
        ++it;
      }
    }
    orphan_mu_.unlock();
  }
  return true;
}

void Domain::flush_eligible(LocalState& st) {
  const uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
  for (auto& b : st.buckets) {
    if (!b.items.empty() && b.epoch_tag + 2 <= g) free_bucket(b);
  }
}

void Domain::free_bucket(Bucket& b) {
  for (const Retired& r : b.items) r.del(r.p);
  b.items.clear();
}

void Domain::drain() {
  LocalState& st = local();
  assert(st.depth == 0 && "drain() inside a Guard is a bug");
  for (auto& b : st.buckets) free_bucket(b);
  std::lock_guard<std::mutex> lk(orphan_mu_);
  for (auto& b : orphans_) free_bucket(b);
  orphans_.clear();
}

}  // namespace condyn::ebr
