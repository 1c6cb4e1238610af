#pragma once

#include <cstdint>
#include <memory>

#include "api/dynamic_connectivity.hpp"
#include "core/ett.hpp"
#include "core/hdt_levels.hpp"
#include "core/sharded_map.hpp"
#include "graph/graph.hpp"
#include "util/small_flat_set.hpp"

namespace condyn {

/// Holm–de Lichtenberg–Thorup dynamic connectivity over single-writer
/// Euler Tour Trees (paper §4.1–§4.2), on the shared level skeleton
/// (HdtLevels).
///
/// A spanning edge of level l has arc pairs in F_0..F_l; a non-spanning edge
/// of level l is recorded in the per-level adjacency sets of its endpoints.
/// Replacement searches promote edges of the smaller side to amortize their
/// cost, with the Iyer-et-al. random-sampling fast path the paper enables
/// for all evaluated algorithms (§5.2 "Sampling").
///
/// Concurrency contract:
///  * connected() is lock-free and linearizable (level-0 single-writer ETT);
///  * add_edge/remove_edge/connected_writer require the caller to hold
///    lock(s) covering the involved component(s) — a global lock for the
///    coarse variants, the level-0 root locks of Listing 2 for the
///    fine-grained ones. Cross-component shared state (edge table, adjacency
///    maps, lazy forest creation) is internally sharded/atomic, so writers
///    of disjoint components proceed in parallel.
///  * A spanning-edge removal keeps the F_0 split *pending* (ett two-phase
///    cut) for the whole replacement search, so readers observe the removal
///    only at its linearization point — or never, if a replacement exists.
class Hdt : public HdtLevels {
 public:
  struct UpdateOutcome {
    bool performed = false;  ///< the graph changed
    bool spanning = false;   ///< the spanning forest changed (or was probed)
  };

  explicit Hdt(Vertex n, bool sampling = true, bool label_cache = false);

  /// Writer-side query: caller holds lock(s) covering both components.
  bool connected_writer(Vertex u, Vertex v) {
    return forest0_->connected_writer(u, v);
  }

  /// Writer-side value queries: caller holds lock(s) covering u's component.
  uint64_t component_size_writer(Vertex u) {
    return forest0_->component_vertices(u);
  }
  Vertex representative_writer(Vertex u) {
    return forest0_->representative_writer(u);
  }

  /// One op of any kind as a raw value (bool kinds as 0/1) under the
  /// caller's lock(s): the locked dispatch behind batches and the combining
  /// baselines. Lock-free reads dispatch through HdtLevels::exec_query.
  uint64_t exec_writer(const Op& op) {
    switch (op.kind) {
      case OpKind::kAdd: return add_edge(op.u, op.v).performed ? 1 : 0;
      case OpKind::kRemove: return remove_edge(op.u, op.v).performed ? 1 : 0;
      case OpKind::kConnected: return connected_writer(op.u, op.v) ? 1 : 0;
      case OpKind::kComponentSize: return component_size_writer(op.u);
      case OpKind::kRepresentative: return representative_writer(op.u);
    }
    return 0;
  }

  /// Writer: insert (u,v). Returns {performed=false} if already present.
  UpdateOutcome add_edge(Vertex u, Vertex v);

  /// Writer: erase (u,v). Returns {performed=false} if absent.
  UpdateOutcome remove_edge(Vertex u, Vertex v);

  /// Writer: apply a whole batch under the caller's lock(s), writing per-op
  /// outcomes into `out` (whose results vector must already have ops.size()
  /// entries). Equivalent to applying ops in index order: maximal runs of
  /// updates between queries are stably grouped by edge — updates on
  /// distinct edges commute (their return values and the resulting edge set
  /// depend only on per-edge history), so the reorder preserves sequential
  /// batch semantics while repeated edges and same-component work apply
  /// back-to-back (DESIGN.md §5.1).
  void apply_batch(std::span<const Op> ops, BatchResult& out);

  bool has_edge(Vertex u, Vertex v) const;
  bool is_spanning(Vertex u, Vertex v) const;
  int edge_level(Vertex u, Vertex v) const;  ///< -1 when absent

  /// Testing (quiescent only): F_0 ⊇ F_1 ⊇ ..., adjacency membership,
  /// component-size bound. Throws std::logic_error on a broken invariant.
  void check_invariants();

 private:
  struct EdgeInfo {
    uint8_t level = 0;
    bool spanning = false;
    bool present = false;
  };

  /// Per-(vertex, level) non-spanning neighbors. A small-inline flat set:
  /// degree is tiny almost always, so membership is a linear scan and the
  /// common case allocates nothing (DESIGN.md §7.2).
  struct AdjSet {
    SmallFlatSet<Vertex> s;
  };

  void adj_insert(int level, Vertex a, Vertex b);
  void adj_erase(int level, Vertex a, Vertex b);

  /// Full scan (Listing-10 shape, locked engine): promote non-candidates,
  /// stop at the first edge crossing to other_root. Recalculates flags
  /// bottom-up. Returns true and fills *out when a replacement was found
  /// (already detached from the adjacency sets).
  bool search_replacement(int i, ett::Node* tv_root, ett::Node* other_root,
                          Edge* out);

  /// Sampling fast path: test up to kSampleBudget candidate edges without
  /// promoting anything.
  bool sample_replacement(int i, ett::Node* tv_root, ett::Node* other_root,
                          Edge* out);

  static constexpr int kSampleBudget = 16;

  bool sampling_;
  ShardedEdgeMap<EdgeInfo> edges_;
  std::unique_ptr<ShardedU64Map<AdjSet>[]> adj_;
};

}  // namespace condyn
