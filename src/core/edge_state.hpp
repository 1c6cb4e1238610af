#pragma once

#include <atomic>
#include <cstdint>

#include "core/sharded_map.hpp"
#include "graph/graph.hpp"

namespace condyn {

/// Edge statuses of the full non-blocking algorithm — the state machine of
/// paper Figure 13 (Figure 4 plus IN_PROGRESS for concurrent same-edge
/// additions). kRemoved is a real stored value rather than physical absence:
/// records in the sharded map are stable, so threads can CAS on them without
/// a reclamation protocol, and a fresh stamp on each re-insertion defeats
/// ABA (Appendix C "to avoid the ABA problem we pair INITIAL status with
/// random bits").
enum class EdgeStatus : uint8_t {
  kRemoved = 0,      ///< not in the graph (logically absent)
  kInitial = 1,      ///< being inserted; final kind not yet decided
  kNonSpanning = 2,  ///< in the graph, not in the spanning forest
  kSpanning = 3,     ///< in the spanning forest
  kInProgress = 4,   ///< a writer is inserting it as a spanning edge
};

/// One edge's (status, level, stamp) packed into a single CAS-able word,
/// exactly the paper's "an edge level and a status can be merged to fit in a
/// machine word" optimization. Layout: [stamp:53][level:8][status:3].
class EdgeState {
 public:
  static constexpr uint64_t kStatusBits = 3;
  static constexpr uint64_t kLevelBits = 8;
  static constexpr uint64_t kStatusMask = (uint64_t{1} << kStatusBits) - 1;
  static constexpr uint64_t kLevelMask = (uint64_t{1} << kLevelBits) - 1;

  constexpr EdgeState() noexcept = default;
  constexpr explicit EdgeState(uint64_t word) noexcept : word_(word) {}
  constexpr EdgeState(EdgeStatus st, int level, uint64_t stamp) noexcept
      : word_((stamp << (kStatusBits + kLevelBits)) |
              ((static_cast<uint64_t>(level) & kLevelMask) << kStatusBits) |
              static_cast<uint64_t>(st)) {}

  constexpr EdgeStatus status() const noexcept {
    return static_cast<EdgeStatus>(word_ & kStatusMask);
  }
  constexpr int level() const noexcept {
    return static_cast<int>((word_ >> kStatusBits) & kLevelMask);
  }
  constexpr uint64_t stamp() const noexcept {
    return word_ >> (kStatusBits + kLevelBits);
  }
  constexpr uint64_t word() const noexcept { return word_; }

  /// Same stamp, new status/level — the shape of every legal transition out
  /// of a live state (the stamp changes only on kRemoved → kInitial).
  constexpr EdgeState with(EdgeStatus st, int level) const noexcept {
    return EdgeState(st, level, stamp());
  }

  constexpr bool present() const noexcept {
    return status() != EdgeStatus::kRemoved &&
           status() != EdgeStatus::kInitial;
  }

  friend constexpr bool operator==(EdgeState, EdgeState) = default;

 private:
  uint64_t word_ = 0;  // status kRemoved, level 0, stamp 0
};

/// The per-edge record: one atomic word. Records are created on first touch
/// and never destroyed until the owning map dies, so any thread may hold the
/// pointer and CAS freely (Listing 5's `states` ConcurrentHashMap).
///
/// Memory-order scheme (DESIGN.md §7.3): every access is seq_cst — the
/// CASes are the linearization points of the edge state machine, and the
/// plain store/load pairs take part in the Dekker-style publication between
/// `sub_nonspanning` witnesses and removal flaggers.
struct EdgeStateCell {
  std::atomic<uint64_t> word{0};

  EdgeState load() const noexcept {
    return EdgeState(word.load(std::memory_order_seq_cst));
  }
  /// CAS expected → desired; on failure `expected` is refreshed.
  bool cas(EdgeState& expected, EdgeState desired) noexcept {
    uint64_t w = expected.word();
    const bool ok = word.compare_exchange_strong(w, desired.word(),
                                                 std::memory_order_seq_cst);
    if (!ok) expected = EdgeState(w);
    return ok;
  }
  void store(EdgeState s) noexcept {
    word.store(s.word(), std::memory_order_seq_cst);
  }
};

/// Sharded edge → state table of the full algorithm.
class EdgeStateMap {
 public:
  explicit EdgeStateMap(std::size_t expected_keys = 0, unsigned shards = 0)
      : map_(expected_keys, shards) {}

  /// The record for (u,v), created (as kRemoved) if missing.
  EdgeStateCell* cell(const Edge& e) { return map_.get_or_create(e); }

  /// Read-only lookup: state of the edge, kRemoved if never seen.
  EdgeState load(const Edge& e) const {
    const EdgeStateCell* c = map_.find(e);
    return c != nullptr ? c->load() : EdgeState();
  }

  template <typename F>
  void for_each(F&& f) const {
    map_.for_each(
        [&](const Edge& e, const EdgeStateCell& c) { f(e, c.load()); });
  }

 private:
  ShardedEdgeMap<EdgeStateCell> map_;
};

}  // namespace condyn
