#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace condyn {

/// One operation of the batch vocabulary (DESIGN.md §5). The first three
/// kinds are exactly the paper's boolean interface; kComponentSize and
/// kRepresentative are the value-returning queries a connectivity *service*
/// is asked (De Man et al. 2024 make them first-class): "how big is u's
/// component?" and "give me a stable, canonical member of u's component so I
/// can shard by it". A batch is simply a program — a sequence of operations
/// applied in index order.
enum class OpKind : uint8_t {
  kAdd = 0,
  kRemove = 1,
  kConnected = 2,
  kComponentSize = 3,   ///< |V| of u's component (v unused, set to u)
  kRepresentative = 4,  ///< smallest vertex id in u's component (v unused)
};

/// Number of operation kinds (array-sizing bound for per-kind counters).
inline constexpr std::size_t kNumOpKinds = 5;

/// Updates mutate the edge set; everything else is a query.
constexpr bool is_update(OpKind k) noexcept {
  return k == OpKind::kAdd || k == OpKind::kRemove;
}
constexpr bool is_query(OpKind k) noexcept { return !is_update(k); }

struct Op {
  OpKind kind = OpKind::kConnected;
  Vertex u = 0;
  Vertex v = 0;

  static constexpr Op add(Vertex u, Vertex v) noexcept {
    return {OpKind::kAdd, u, v};
  }
  static constexpr Op remove(Vertex u, Vertex v) noexcept {
    return {OpKind::kRemove, u, v};
  }
  static constexpr Op connected(Vertex u, Vertex v) noexcept {
    return {OpKind::kConnected, u, v};
  }
  /// Single-vertex queries keep v == u so the wire formats (delta-encoded
  /// against u) and edge-canonicalizing code paths stay well-defined.
  static constexpr Op component_size(Vertex u) noexcept {
    return {OpKind::kComponentSize, u, u};
  }
  static constexpr Op representative(Vertex u) noexcept {
    return {OpKind::kRepresentative, u, u};
  }

  friend bool operator==(const Op&, const Op&) = default;
};

/// Does the batch contain only queries (connectivity, size, representative)?
/// Variants use this for the pure-read exemption (see apply_batch below): a
/// read-only batch can run on the variant's read path instead of its update
/// synchronization.
inline bool all_reads(std::span<const Op> ops) noexcept {
  for (const Op& op : ops) {
    if (is_update(op.kind)) return false;
  }
  return true;
}

/// Per-operation results of one apply_batch call: values[i] is the raw value
/// the single-op API would have returned for ops[i] — 0/1 for the boolean
/// kinds (add/remove/connected), the component size for kComponentSize, the
/// representative vertex id for kRepresentative — plus summary counters so
/// callers that only need aggregates never rescan the batch.
struct BatchResult {
  std::vector<uint64_t> values;    ///< raw per-op values, indexed like ops
  uint64_t adds_performed = 0;     ///< adds that changed the graph
  uint64_t removes_performed = 0;  ///< removes that changed the graph
  uint64_t queries_true = 0;       ///< connected() calls that answered true

  /// Boolean view of op i (add/remove/connected kinds).
  bool result(std::size_t i) const noexcept { return values[i] != 0; }
  /// Raw value of op i (component size / representative kinds).
  uint64_t value(std::size_t i) const noexcept { return values[i]; }
  std::size_t size() const noexcept { return values.size(); }

  /// Record op i's raw outcome (keeps the counters and values consistent).
  void set_op(std::size_t i, OpKind kind, uint64_t raw) noexcept {
    values[i] = raw;
    if (raw == 0) return;
    switch (kind) {
      case OpKind::kAdd: ++adds_performed; break;
      case OpKind::kRemove: ++removes_performed; break;
      case OpKind::kConnected: ++queries_true; break;
      case OpKind::kComponentSize:
      case OpKind::kRepresentative:
        break;  // value queries carry no summary counter
    }
  }
};

/// The label array of one components() call: labels[v] is the canonical
/// (smallest-id) member of v's component, so labels[u] == labels[v] iff u
/// and v were connected — the flat form a sharding or partitioning layer
/// consumes directly.
struct ComponentsSnapshot {
  std::vector<Vertex> labels;
  /// True when every entry comes from one atomically published epoch (the
  /// label-cache path); false for the base per-vertex scan, which is only
  /// consistent at quiescence.
  bool consistent = false;

  bool same_component(Vertex u, Vertex v) const noexcept {
    return labels[u] == labels[v];
  }
  std::size_t num_components() const noexcept {
    std::size_t n = 0;
    for (Vertex v = 0; v < labels.size(); ++v) {
      if (labels[v] == v) ++n;
    }
    return n;
  }
};

/// The public interface every algorithm variant implements — the three
/// operations of the dynamic connectivity problem (paper §1):
///   addEdge(u,v), removeEdge(u,v), connected(u,v)
/// extended with the value-returning queries of the Query API v2
/// (component_size, representative) and the batch entry point apply_batch
/// the rest of this repo's pipeline (harness, benches, combining layer) is
/// built around.
/// All implementations in this library are linearizable and safe for
/// arbitrary concurrent use of all operations.
class DynamicConnectivity {
 public:
  virtual ~DynamicConnectivity() = default;

  /// Insert the undirected edge (u,v). Returns false if it was present.
  virtual bool add_edge(Vertex u, Vertex v) = 0;

  /// Erase the undirected edge (u,v). Returns false if it was absent.
  virtual bool remove_edge(Vertex u, Vertex v) = 0;

  /// Are u and v in the same connected component?
  virtual bool connected(Vertex u, Vertex v) = 0;

  /// Number of vertices in u's component (>= 1: u is always a member).
  /// Every variant answers it natively in O(find_root) from the ETT's
  /// vertex-count augmentation, under the same synchronization regime as
  /// its connected(); the value is exact at quiescence and between updates
  /// of u's component.
  virtual uint64_t component_size(Vertex u) = 0;

  /// Canonical representative of u's component: the smallest vertex id the
  /// component contains. representative(u) == representative(v) iff
  /// connected(u, v), and the value is stable as long as the component's
  /// membership does not change — the property that makes it usable as a
  /// sharding key. Being a pure function of the member set, it is also
  /// identical across variants (trace replays stay comparable). Every
  /// variant answers it natively from the ETT's min-vertex augmentation.
  virtual Vertex representative(Vertex u) = 0;

  /// Every component at once: a full label array (see ComponentsSnapshot).
  /// The base fallback calls representative(v) per vertex — n independent
  /// queries, consistent only at quiescence. Variants with
  /// VariantCaps::label_cache override it to read one published epoch of
  /// the label cache, which *is* a consistent snapshot even under
  /// concurrent updates (falling back to the scan when churn defeats it).
  virtual ComponentsSnapshot components();

  /// Apply a batch of operations with results equivalent to calling the
  /// single-op methods in index order. Each operation remains individually
  /// linearizable; for variants whose VariantCaps::atomic_batch is set (the
  /// coarse-locked and combining families), a batch containing at least one
  /// update is additionally atomic with respect to concurrent callers.
  /// Pure-read batches are exempt even there: on variants with non-blocking
  /// reads they run as individual lock-free queries, not under the lock.
  /// The base implementation is the correct single-op fallback loop;
  /// variants override it to amortize synchronization across the batch
  /// (DESIGN.md §5).
  virtual BatchResult apply_batch(std::span<const Op> ops);

  virtual Vertex num_vertices() const = 0;

  /// Settle lazily maintained internal state at a known-quiescent point:
  /// callers that can guarantee no concurrent updates (the ingest applier
  /// parked at a batch boundary, a recovery that just finished its replay)
  /// invoke this before snapshotting or serving queries, so a structure
  /// that defers work (a decorator's buffers, a cache) can settle it once
  /// here instead of on the first post-quiesce query. Base: no-op — no
  /// built-in variant keeps anything deferred.
  virtual void quiesce() {}

  /// Stable identifier used in benchmark tables (matches DESIGN.md §1).
  virtual std::string name() const = 0;
};

/// Execute one op through the single-op virtuals, returning the raw value
/// (bool kinds as 0/1). The one switch behind the base apply_batch fallback,
/// the harness driver and trace replay.
inline uint64_t exec_single(DynamicConnectivity& dc, const Op& op) {
  switch (op.kind) {
    case OpKind::kAdd:
      return dc.add_edge(op.u, op.v) ? 1 : 0;
    case OpKind::kRemove:
      return dc.remove_edge(op.u, op.v) ? 1 : 0;
    case OpKind::kConnected:
      return dc.connected(op.u, op.v) ? 1 : 0;
    case OpKind::kComponentSize:
      return dc.component_size(op.u);
    case OpKind::kRepresentative:
      return dc.representative(op.u);
  }
  return 0;
}

}  // namespace condyn
