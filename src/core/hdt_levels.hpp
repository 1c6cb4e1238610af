#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "core/ett.hpp"
#include "core/label_cache.hpp"
#include "graph/graph.hpp"

namespace condyn {

/// The Holm–de Lichtenberg–Thorup level structure both engines build on
/// (paper §4.1–§4.2): levels 0..⌊log2 n⌋, one Euler-tour forest F_i per
/// level, created on first use, where F_i spans the subgraph G_i of edges
/// with level ≥ i and F_0 is the published forest that lock-free queries
/// read. It owns the optional label cache over F_0 (DESIGN.md §8) and the
/// lock-free read path through it, and holds the parts of a replacement
/// search that do not depend on how an edge's record is stored: the
/// smaller-piece pick, the flagged subtree walk, the tree-arc promotion
/// loop, and the forest-nesting and size-bound checks.
///
/// The engines own the rest: the edge table, the per-level adjacency sets
/// and the locking discipline (Hdt for the coarse and fine-grained
/// variants, NbHdt for the full algorithm).
class HdtLevels {
 public:
  Vertex num_vertices() const noexcept { return n_; }
  int max_level() const noexcept { return lmax_; }

  /// The published forest readers traverse; the fine-grained variants use
  /// it for root discovery (component locks).
  ett::Forest& level0() noexcept { return *forest0_; }

  /// Lock-free linearizable connectivity query (Listing 1 on F_0), answered
  /// from the label cache when this engine has one. The engines' own
  /// probes call forest0_ directly, so they never hit or publish labels.
  bool connected(Vertex u, Vertex v) {
    return cache_ ? cache_->connected(u, v) : forest0_->connected(u, v);
  }

  /// Lock-free value queries (Query API v2): the F_0 root's vcount / vmin
  /// augmentation under the same versioned double-collect as connected(),
  /// or the cache's published label. A pending spanning removal keeps both
  /// pieces counted at the old root until the cut commits, exactly like
  /// connected().
  uint64_t component_size(Vertex u) {
    return cache_ ? cache_->component_size(u)
                  : forest0_->component_size_nonblocking(u);
  }
  Vertex representative(Vertex u) {
    return cache_ ? cache_->representative(u)
                  : forest0_->representative_nonblocking(u);
  }

  /// One query op of any is_query kind as a raw value: the lock-free
  /// dispatch behind every variant's non-blocking read path (a new query
  /// kind is added here once).
  uint64_t exec_query(const Op& op) {
    switch (op.kind) {
      case OpKind::kConnected: return connected(op.u, op.v) ? 1 : 0;
      case OpKind::kComponentSize: return component_size(op.u);
      case OpKind::kRepresentative: return representative(op.u);
      default: return 0;  // updates never reach the query paths
    }
  }

  /// components() of a facade over this engine: one published label epoch
  /// when the cache is built and churn lets it validate, otherwise the
  /// facade's per-vertex scan.
  ComponentsSnapshot components(DynamicConnectivity& facade) {
    ComponentsSnapshot s;
    if (cache_ != nullptr && cache_->snapshot_labels(s.labels)) {
      s.consistent = true;
      return s;
    }
    return facade.DynamicConnectivity::components();
  }

 protected:
  /// `label_cache` builds the cache over F_0 (the variant table's
  /// VariantCaps::label_cache, read in api/factory.cpp).
  HdtLevels(Vertex n, bool label_cache);
  ~HdtLevels();
  HdtLevels(const HdtLevels&) = delete;
  HdtLevels& operator=(const HdtLevels&) = delete;

  /// F_i, created on first use. Writers of disjoint components may race to
  /// create it; the loser frees its copy (create_forest).
  ett::Forest& forest(int i) {
    assert(i <= lmax_ + 1);
    ett::Forest* f = forests_[i].load(std::memory_order_acquire);
    return f != nullptr ? *f : create_forest(i);
  }
  ett::Forest* forest_if(int i) const noexcept {
    return forests_[i].load(std::memory_order_acquire);
  }

  /// The two pieces of a split tree: `tv` has no more vertices than
  /// `other`, so tv is the one scanned and promoted.
  struct Pieces {
    ett::Node* tv;
    ett::Node* other;
  };
  static Pieces smaller_piece(ett::Node* ru, ett::Node* rv) noexcept {
    return ett::Forest::subtree_vertices(ru) <= ett::Forest::subtree_vertices(rv)
               ? Pieces{ru, rv}
               : Pieces{rv, ru};
  }

  /// Visit, in vertex → left → right order, every vertex node of x's
  /// subtree whose flags promise non-spanning edges; `visit(vertex_node)`
  /// returns true to stop the walk. When `recalc` is set, repair flags
  /// bottom-up (full scans lower stale flags; sampling must not, it skips
  /// edges without processing them).
  template <typename V>
  static bool walk_flagged(ett::Node* x, bool recalc, V&& visit) {
    if (x == nullptr || !x->sub_nonspanning.load(std::memory_order_seq_cst))
      return false;
    bool found = false;
    if (x->is_vertex() &&
        x->local_nonspanning.load(std::memory_order_seq_cst) > 0) {
      found = visit(x);
    }
    if (!found) found = walk_flagged(x->left, recalc, visit);
    if (!found) found = walk_flagged(x->right, recalc, visit);
    if (recalc) ett::Forest::recalculate_flags(x);
    return found;
  }

  /// Promote every level-i spanning edge inside tv's subtree to level i+1:
  /// its arcs move from F_i's level marks into F_{i+1}, and `raise(e)`
  /// moves the engine's own record of e up one level.
  template <typename Raise>
  void promote_level_arcs(int i, ett::Node* tv_root, Raise&& raise) {
    assert(i + 1 <= lmax_);
    std::vector<Edge> arcs;
    collect_level_arcs(tv_root, arcs);
    ett::Forest& fi = forest(i);
    ett::Forest& fn = forest(i + 1);
    for (const Edge& e : arcs) {
      fi.set_arc_at_level(e.u, e.v, false);
      fn.link(e.u, e.v);
      fn.set_arc_at_level(e.u, e.v, true);
      raise(e);
    }
  }

  /// Invariant checks for check_invariants (quiescent structure only).
  /// Each throws std::logic_error naming the invariant and the edge.
  ///
  /// Forest nesting: a spanning edge of level l has arcs in F_0..F_l and in
  /// no forest above.
  void check_spanning_nesting(const Edge& e, int level) const;
  /// Size bound: e's tree in F_level has at most n / 2^level vertices.
  void check_size_bound(const Edge& e, int level) const;
  static void require(bool ok, const char* invariant, const Edge& e);

  Vertex n_;
  int lmax_;
  ett::Forest* forest0_;  // owned via forests_[0], cached for hot paths

 private:
  ett::Forest& create_forest(int i);
  static void collect_level_arcs(const ett::Node* x, std::vector<Edge>& out);

  std::unique_ptr<std::atomic<ett::Forest*>[]> forests_;
  std::unique_ptr<LabelCache> cache_;  // reset before the forests die
};

}  // namespace condyn
