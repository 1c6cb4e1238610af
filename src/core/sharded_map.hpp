#pragma once

#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>

#include "graph/graph.hpp"
#include "util/cacheline.hpp"
#include "util/pool_stats.hpp"
#include "util/random.hpp"
#include "util/spinlock.hpp"

namespace condyn {

/// Sharded flat hash map from 64-bit keys to records with stable addresses
/// (DESIGN.md §7.2).
///
/// Uses in this library:
///  * arc-node tables of each ETT forest (key = canonical edge key);
///  * the per-edge state table of the full algorithm (Listing 5's
///    `ConcurrentHashMap<Edge, State>`);
///  * per-level non-spanning adjacency sets (key = vertex).
///
/// Contract (unchanged from the node-based predecessor): records are
/// created once and never move or die until erase()/clear()/dtor, so a
/// caller may hold a Record* and CAS its atomic fields without a
/// reclamation protocol; "removed" is a state value, not an erased entry
/// (erase() exists for writer-only tables such as arc maps and is only safe
/// when no thread can still hold the pointer). Lookups take a per-shard
/// spinlock only to find/insert the record — the record's fields themselves
/// are then accessed lock-free or under the owning component's lock.
///
/// Layout: each shard is a stack of open-addressing segments (linear
/// probing, power-of-two capacity, one control byte per slot, the Record
/// stored INLINE next to its key — a hit costs one probe run in one array
/// instead of the bucket-node-unique_ptr chase of
/// `unordered_map<uint64_t, unique_ptr<Record>>`). Growth appends a
/// double-size segment rather than rehashing, because rehashing would move
/// records out from under concurrent holders; lookups probe newest → oldest
/// (older segments hold a geometrically-shrinking share of the keys, and a
/// map sized from `expected_keys` at construction rarely grows at all).
/// erase() leaves a tombstone that keeps probe chains intact; a later
/// insert whose probe run passes a tombstone reuses the slot in place.
template <typename Record>
class ShardedU64Map {
 public:
  /// `expected_keys` sizes the initial segment of every shard so the
  /// steady-state map needs no growth segment; `shards` (rounded up to a
  /// power of two, default 64) bounds writer concurrency.
  explicit ShardedU64Map(std::size_t expected_keys = 0, unsigned shards = 0)
      : shards_(round_pow2(shards == 0 ? kDefaultShards : shards)) {
    std::size_t per_shard = expected_keys / shards_ + 1;
    // 7/8 max load plus headroom so "expected" does not mean "about to grow".
    init_cap_ = round_pow2(std::max<std::size_t>(kMinCap, per_shard * 2));
    table_ = static_cast<Shard*>(
        ::operator new(sizeof(Shard) * shards_, std::align_val_t{kCacheLine}));
    for (unsigned i = 0; i < shards_; ++i) ::new (&table_[i]) Shard();
  }

  ~ShardedU64Map() {
    for (unsigned i = 0; i < shards_; ++i) {
      free_segments(table_[i]);
      table_[i].~Shard();
    }
    ::operator delete(table_, std::align_val_t{kCacheLine});
  }

  ShardedU64Map(const ShardedU64Map&) = delete;
  ShardedU64Map& operator=(const ShardedU64Map&) = delete;

  Record* find(uint64_t key) const {
    const uint64_t h = mix64(key);
    Shard& s = shard(h);
    std::lock_guard<SpinLock> lk(s.mu);
    for (Segment* seg = s.newest; seg != nullptr; seg = seg->older) {
      const std::size_t idx = probe_find(*seg, key, h);
      if (idx != kNotFound) return &seg->slots[idx].rec;
    }
    return nullptr;
  }

  Record* get_or_create(uint64_t key) {
    const uint64_t h = mix64(key);
    Shard& s = shard(h);
    std::lock_guard<SpinLock> lk(s.mu);
    if (s.newest == nullptr) push_segment(s, init_cap_);

    // One probe pass over every segment: return on a hit, remember the first
    // tombstone on the key's chain for in-place reuse.
    Segment* tomb_seg = nullptr;
    std::size_t tomb_idx = 0;
    for (Segment* seg = s.newest; seg != nullptr; seg = seg->older) {
      std::size_t i = static_cast<std::size_t>(h >> 32) & seg->mask;
      for (;;) {
        const uint8_t c = seg->ctrl[i];
        if (c == kEmpty) break;
        if (c == kFull && seg->slots[i].key == key) return &seg->slots[i].rec;
        if (c == kTomb && tomb_seg == nullptr) {
          tomb_seg = seg;
          tomb_idx = i;
        }
        i = (i + 1) & seg->mask;
      }
    }

    if (tomb_seg != nullptr) {
      // Reuse lies on the key's probe chain of its segment (we passed it
      // while probing), so later finds reach it before any empty slot.
      construct(*tomb_seg, tomb_idx, key);
      --tomb_seg->tombs;
      ++s.live;
      return &tomb_seg->slots[tomb_idx].rec;
    }

    if ((s.newest->fill + 1) * 8 > (s.newest->mask + 1) * 7) {
      push_segment(s, (s.newest->mask + 1) * 2);
    }
    Segment& seg = *s.newest;
    std::size_t i = static_cast<std::size_t>(h >> 32) & seg.mask;
    while (seg.ctrl[i] != kEmpty) i = (i + 1) & seg.mask;
    construct(seg, i, key);
    ++seg.fill;
    ++s.live;
    return &seg.slots[i].rec;
  }

  /// Physically erase (only safe when no thread can hold the pointer).
  /// The slot becomes a tombstone; probe chains through it stay intact.
  void erase(uint64_t key) {
    const uint64_t h = mix64(key);
    Shard& s = shard(h);
    std::lock_guard<SpinLock> lk(s.mu);
    for (Segment* seg = s.newest; seg != nullptr; seg = seg->older) {
      const std::size_t idx = probe_find(*seg, key, h);
      if (idx == kNotFound) continue;
      seg->slots[idx].rec.~Record();
      seg->ctrl[idx] = kTomb;
      ++seg->tombs;
      --s.live;
      return;
    }
  }

  void clear() {
    for (unsigned i = 0; i < shards_; ++i) {
      std::lock_guard<SpinLock> lk(table_[i].mu);
      free_segments(table_[i]);
      table_[i].newest = nullptr;
      table_[i].live = 0;
    }
  }

  /// Visit every record (takes each shard lock in turn).
  template <typename F>
  void for_each(F&& f) const {
    for (unsigned i = 0; i < shards_; ++i) {
      std::lock_guard<SpinLock> lk(table_[i].mu);
      for (Segment* seg = table_[i].newest; seg != nullptr; seg = seg->older) {
        for (std::size_t j = 0; j <= seg->mask; ++j) {
          if (seg->ctrl[j] == kFull) f(seg->slots[j].key, seg->slots[j].rec);
        }
      }
    }
  }

  /// Live records (introspection/tests; takes each shard lock in turn).
  std::size_t size() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < shards_; ++i) {
      std::lock_guard<SpinLock> lk(table_[i].mu);
      n += table_[i].live;
    }
    return n;
  }

  /// Total open-addressing segments (1 per shard until a shard grows).
  std::size_t segments() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < shards_; ++i) {
      std::lock_guard<SpinLock> lk(table_[i].mu);
      for (Segment* seg = table_[i].newest; seg != nullptr; seg = seg->older)
        ++n;
    }
    return n;
  }

  /// Total slot capacity across all shards and segments.
  std::size_t capacity() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < shards_; ++i) {
      std::lock_guard<SpinLock> lk(table_[i].mu);
      for (Segment* seg = table_[i].newest; seg != nullptr; seg = seg->older)
        n += seg->mask + 1;
    }
    return n;
  }

 private:
  static constexpr unsigned kDefaultShards = 64;
  static constexpr std::size_t kMinCap = 8;
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr uint8_t kEmpty = 0, kFull = 1, kTomb = 2;

  struct Slot {
    uint64_t key;
    Record rec;
  };

  /// One open-addressing segment: control bytes and inline slots share a
  /// single allocation (slots first for alignment, ctrl bytes after).
  struct Segment {
    Segment* older;
    std::size_t mask;   ///< capacity - 1 (power of two)
    std::size_t fill;   ///< full + tombstone slots (probe-length bound)
    std::size_t tombs;
    uint8_t* ctrl;
    Slot* slots;
  };

  struct alignas(kCacheLine) Shard {
    mutable SpinLock mu;
    Segment* newest = nullptr;
    std::size_t live = 0;
  };

  static std::size_t round_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  Shard& shard(uint64_t h) const { return table_[h & (shards_ - 1)]; }

  /// Index of `key` in `seg`, or kNotFound at the chain's first empty slot.
  static std::size_t probe_find(const Segment& seg, uint64_t key,
                                uint64_t h) noexcept {
    std::size_t i = static_cast<std::size_t>(h >> 32) & seg.mask;
    for (;;) {
      const uint8_t c = seg.ctrl[i];
      if (c == kEmpty) return kNotFound;
      if (c == kFull && seg.slots[i].key == key) return i;
      i = (i + 1) & seg.mask;
    }
  }

  static void construct(Segment& seg, std::size_t idx, uint64_t key) {
    seg.ctrl[idx] = kFull;
    seg.slots[idx].key = key;
    ::new (&seg.slots[idx].rec) Record();
  }

  // Header and slots share one allocation; the slot offset is rounded up so
  // over-aligned Records (e.g. a future alignas(kCacheLine) one) still get
  // correctly-aligned storage.
  static constexpr std::size_t seg_align() noexcept {
    return alignof(Slot) > alignof(Segment) ? alignof(Slot)
                                            : alignof(Segment);
  }
  static constexpr std::size_t slots_offset() noexcept {
    return (sizeof(Segment) + alignof(Slot) - 1) / alignof(Slot) *
           alignof(Slot);
  }

  void push_segment(Shard& s, std::size_t cap) {
    const std::size_t bytes = slots_offset() + cap * sizeof(Slot) + cap;
    auto* base = static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{seg_align()}));
    auto* seg = ::new (base) Segment();
    seg->older = s.newest;
    seg->mask = cap - 1;
    seg->fill = 0;
    seg->tombs = 0;
    seg->slots = reinterpret_cast<Slot*>(base + slots_offset());
    seg->ctrl = reinterpret_cast<uint8_t*>(seg->slots + cap);
    std::memset(seg->ctrl, kEmpty, cap);
    s.newest = seg;
    auto& st = pool_stats::local();
    ++st.allocator_calls;
    st.bytes_allocated += bytes;
    pool_stats::add_resident(static_cast<int64_t>(bytes));
  }

  void free_segments(Shard& s) {
    auto& st = pool_stats::local();
    for (Segment* seg = s.newest; seg != nullptr;) {
      Segment* older = seg->older;
      for (std::size_t j = 0; j <= seg->mask; ++j) {
        if (seg->ctrl[j] == kFull) seg->slots[j].rec.~Record();
      }
      ++st.allocator_frees;
      pool_stats::add_resident(
          -static_cast<int64_t>(slots_offset() + (seg->mask + 1) *
                                                     (sizeof(Slot) + 1)));
      seg->~Segment();
      ::operator delete(reinterpret_cast<std::byte*>(seg),
                        std::align_val_t{seg_align()});
      seg = older;
    }
  }

  unsigned shards_;
  std::size_t init_cap_;
  Shard* table_;
};

/// Edge-keyed convenience wrapper.
template <typename Record>
class ShardedEdgeMap {
 public:
  explicit ShardedEdgeMap(std::size_t expected_keys = 0, unsigned shards = 0)
      : map_(expected_keys, shards) {}

  Record* find(const Edge& e) const { return map_.find(e.key()); }
  Record* get_or_create(const Edge& e) { return map_.get_or_create(e.key()); }
  void erase(const Edge& e) { map_.erase(e.key()); }
  void clear() { map_.clear(); }
  std::size_t size() const { return map_.size(); }
  std::size_t segments() const { return map_.segments(); }
  std::size_t capacity() const { return map_.capacity(); }

  template <typename F>
  void for_each(F&& f) const {
    map_.for_each([&](uint64_t k, Record& r) { f(Edge::from_key(k), r); });
  }

 private:
  ShardedU64Map<Record> map_;
};

}  // namespace condyn
