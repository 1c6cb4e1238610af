#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "api/dynamic_connectivity.hpp"
#include "core/component_lock.hpp"
#include "core/edge_multiset.hpp"
#include "core/edge_state.hpp"
#include "core/ett.hpp"
#include "core/hdt_levels.hpp"
#include "core/sharded_map.hpp"
#include "graph/graph.hpp"
#include "util/elision_lock.hpp"
#include "util/spinlock.hpp"

namespace condyn {

/// Spanning-edge-removal descriptor — Listing 5's `RemovalOperation`.
///
/// Published on the level-0 root (every reader's find_root funnels to it
/// while the cut is pending), strictly for the duration of the *level-0*
/// phase of the replacement search. Concurrent non-blocking additions whose
/// edge would reconnect the two halves propose it through `slot`; the writer
/// routes its own level-0 candidates through the same slot, so finalization
/// (installing the kClosed sentinel) yields the unique winner.
struct RemovalOp {
  /// A proposed replacement: the edge, the exact state word the proposer
  /// observed (helpers CAS from it — the stamp defeats ABA, Appendix C),
  /// and the state record to CAS on.
  struct Cell {
    Edge edge;
    EdgeState state;
    EdgeStateCell* rec;
  };

  Vertex u = 0, v = 0;              ///< the spanning edge being removed
  ett::Node* old_root = nullptr;    ///< root all chains still terminate at
  ett::Node* detached_root = nullptr;  ///< piece root that is not old_root

  std::atomic<Cell*> slot{nullptr};

  static Cell* closed() noexcept {
    return reinterpret_cast<Cell*>(uintptr_t{1});
  }
};

/// Lock strategy for the blocking (spanning-forest) paths of the full
/// algorithm, selecting between the paper's variants:
///  kFine          → (9)  per-component root locks (Listing 2);
///  kCoarseSpin    → (10) one global spinlock;
///  kCoarseElision → (11) one global HTM-elided lock.
enum class NbLockMode { kFine, kCoarseSpin, kCoarseElision };

/// The paper's full algorithm (§4.4 + Appendix C): Holm et al. dynamic
/// connectivity on the shared level skeleton (HdtLevels) where
///  * connectivity queries are lock-free (single-writer ETT, Listing 1);
///  * additions and removals of *non-spanning* edges are lock-free,
///    coordinated with concurrent spanning-edge removals through per-edge
///    status words (Fig. 13) and the replacement-proposal slot protocol
///    (Listings 7–10);
///  * only updates that change the spanning forest take locks, per
///    NbLockMode.
class NbHdt : public HdtLevels {
 public:
  explicit NbHdt(Vertex n, NbLockMode mode, bool sampling = true,
                 bool label_cache = false);

  /// Insert (u,v); lock-free when the endpoints are already connected.
  /// Returns false if the edge was already present (or a concurrent addition
  /// of the same edge committed first).
  bool add_edge(Vertex u, Vertex v);

  /// Erase (u,v); lock-free when (u,v) is a non-spanning edge.
  /// Returns false if the edge was absent.
  bool remove_edge(Vertex u, Vertex v);

  bool has_edge(Vertex u, Vertex v) const;
  bool is_spanning(Vertex u, Vertex v) const;
  int edge_level(Vertex u, Vertex v) const;  ///< -1 when absent

  /// Testing (quiescent only): forest nesting, status/forest agreement,
  /// component-size bound, multiset copy invariant. Throws std::logic_error
  /// on a broken invariant.
  void check_invariants();

 private:
  // Where a vertex sits relative to a pending level-0 cut, determined by a
  // lock-free parent-pointer-only ascent (adders cannot inspect the writer's
  // left/right fields without racing, but parent chains alone identify the
  // piece: a vertex is on the detached side iff its chain passes through
  // detached_root before terminating, and in the component at all iff the
  // chain terminates at old_root).
  enum class CutSide { kRootSide, kDetachedSide, kElsewhere };
  CutSide cut_side(const RemovalOp* op, Vertex x);
  bool can_be_replacement(const RemovalOp* op, const Edge& e);

  enum class ProposeResult { kProposed, kOtherWon, kClosed };
  /// Listing 9's propose_replacement, with helping: try to install e as the
  /// replacement; help whatever currently occupies the slot to SPANNING, and
  /// clear defunct occupants. On kOtherWon, *winner is the occupant (already
  /// helped to SPANNING).
  ProposeResult propose_replacement(RemovalOp* op, const Edge& e,
                                    EdgeState state, EdgeStateCell* rec,
                                    RemovalOp::Cell* winner);

  /// Listing 10's finalize_replacement_search: close the slot; returns the
  /// winning cell (caller retires it) or nullptr if no replacement.
  RemovalOp::Cell* finalize_replacement_search(RemovalOp* op);

  /// Listing 9's try_add_non_spanning_edge. Returns true when the edge's
  /// fate was decided (non-spanning, or adopted as a replacement, or handed
  /// to the blocking path); false = restart the outer loop.
  bool try_add_non_spanning(const Edge& e, EdgeState init,
                            EdgeStateCell* rec);

  /// Listing 7's try_remove_non_spanning_edge.
  bool try_remove_non_spanning(const Edge& e, EdgeState st,
                               EdgeStateCell* rec);

  /// Blocking paths (Listing 8 / Listing 7), run under with_locked.
  void blocking_add_edge(const Edge& e, EdgeState init, EdgeStateCell* rec);
  bool blocking_remove_edge(const Edge& e, EdgeStateCell* rec);
  void remove_spanning_edge(const Edge& e, EdgeState st, EdgeStateCell* rec);

  // Replacement-search machinery (writer side, under locks).
  struct LevelSearch {
    int level;
    ett::Node* tv_root;     ///< smaller piece (scanned & promoted)
    ett::Node* other_root;  ///< the piece a replacement must reach
  };
  /// Search levels st.level()..1 (no descriptor; NB adds never target these
  /// levels). Returns true and sets *out (state already moved to
  /// kSpanning, info detached) when found.
  bool search_upper_levels(const Edge& removed, int top_level, Edge* out,
                           int* out_level);
  bool sample_level(const LevelSearch& ls, Edge* out);
  bool scan_level(const LevelSearch& ls, Edge* out);
  /// The slot-aware level-0 scan with INITIAL-edge helping (Listing 10).
  void level0_search(RemovalOp* op, const LevelSearch& ls);
  bool level0_visit_edge(RemovalOp* op, const LevelSearch& ls, Vertex a,
                         Vertex w, bool allow_promote);
  /// promote_level_arcs with each raised edge's state CAS'd to level i+1.
  void promote_spanning(int i, ett::Node* tv_root);

  void add_info(int level, const Edge& e);
  void remove_info(int level, const Edge& e);

  template <typename F>
  void with_locked(Vertex u, Vertex v, F&& f) {
    switch (mode_) {
      case NbLockMode::kFine: {
        ComponentGuard g(*forest0_, u, v);
        f();
        return;
      }
      case NbLockMode::kCoarseSpin: {
        std::lock_guard<SpinLock> lk(coarse_spin_);
        f();
        return;
      }
      case NbLockMode::kCoarseElision: {
        std::lock_guard<ElisionLock> lk(coarse_elision_);
        f();
        return;
      }
    }
  }

  static constexpr int kSampleBudget = 16;

  NbLockMode mode_;
  bool sampling_;
  EdgeStateMap states_;
  /// adj_[i].find(v) = multiset of neighbors w with (v,w) non-spanning at
  /// level i (plus transient copies, see VertexMultiset docs).
  std::unique_ptr<ShardedU64Map<VertexMultiset>[]> adj_;

  SpinLock coarse_spin_;
  ElisionLock coarse_elision_;
};

/// DynamicConnectivity facade over NbHdt — variants (9), (10), (11).
class NbDc final : public DynamicConnectivity {
 public:
  NbDc(Vertex n, NbLockMode mode, std::string name, bool sampling = true,
       bool label_cache = false)
      : hdt_(n, mode, sampling, label_cache), name_(std::move(name)) {}

  bool add_edge(Vertex u, Vertex v) override { return hdt_.add_edge(u, v); }
  bool remove_edge(Vertex u, Vertex v) override {
    return hdt_.remove_edge(u, v);
  }
  bool connected(Vertex u, Vertex v) override { return hdt_.connected(u, v); }

  /// Value queries run on the lock-free read path — the NB family's whole
  /// point is that queries never block, and size/representative are
  /// queries. With the label cache built (DC_LABEL_CACHE, default on) they
  /// hit the O(1) published labels first and fall back to the same
  /// lock-free walk.
  uint64_t component_size(Vertex u) override {
    return hdt_.component_size(u);
  }
  Vertex representative(Vertex u) override { return hdt_.representative(u); }

  ComponentsSnapshot components() override { return hdt_.components(*this); }

  /// Batched path: every operation is already lock-free or fine-grained, so
  /// there is no lock to amortize — the batch runs straight against the
  /// engine and stays fully concurrent with other threads' ops and batches
  /// (not atomic as a whole).
  BatchResult apply_batch(std::span<const Op> ops) override {
    BatchResult r;
    r.values.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      r.set_op(i, op.kind,
               is_query(op.kind) ? hdt_.exec_query(op)
                                 : exec_single(*this, op));
    }
    return r;
  }

  Vertex num_vertices() const override { return hdt_.num_vertices(); }
  std::string name() const override { return name_; }

 private:
  NbHdt hdt_;
  std::string name_;
};

}  // namespace condyn
