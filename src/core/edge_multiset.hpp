#pragma once

#include <atomic>
#include <cstdint>

#include "graph/graph.hpp"
#include "util/ebr.hpp"
#include "util/node_pool.hpp"

namespace condyn {

/// Lock-free multiset of vertices — the per-(vertex, level) container of
/// adjacent non-spanning edges used by the full algorithm (Listing 5's
/// `ConcurrentMultiSet<Edge>`; we store the neighbor endpoint, the owning
/// vertex being implicit).
///
/// Why a *multiset*: the paper permits several copies of the same edge to
/// coexist transiently — an adder inserts its copy before the linearizing
/// status CAS, a helper that completes the same addition inserts another,
/// and each copy is removed by the operation that created it (Appendix C
/// "Edge Management"). The invariant consumers rely on is one-sided: a live
/// non-spanning edge of level r has *at least one* copy in the multisets of
/// both endpoints at level r, because info is inserted before and removed
/// only after the corresponding linearization point.
///
/// Implementation: an unsorted singly-linked list with prepend-insert and
/// logical deletion marks on `next` (Harris). A marked `next` is frozen, and
/// only marked cells ever leave the list. remove_one unlinks the cell it
/// marks right away with one CAS on the link it reached the cell through
/// (Michael). Every traversal (walk) unlinks each run of marked cells it
/// meets with one CAS on the last live link, and on a failed CAS walks on
/// instead of restarting, so each live cell is visited at most once. A dead
/// cell therefore stays linked only when its unlink CAS lost a race, and
/// only until the next walk that reaches it; unlinked cells are retired
/// through the pool's EBR path and recycled. Scans (replacement searches)
/// iterate unmarked cells; they tolerate concurrent inserts (may or may not
/// see them — the protocol's ordering argument, Theorem 4.1, covers both)
/// and concurrent removals, including removals the visitor itself makes.
/// Every atomic access other threads can see is seq_cst (DESIGN.md §7.3).
class VertexMultiset {
 public:
  VertexMultiset() noexcept = default;
  VertexMultiset(const VertexMultiset&) = delete;
  VertexMultiset& operator=(const VertexMultiset&) = delete;

  ~VertexMultiset() {
    // Teardown is single-threaded (owning map's destructor): recycle the
    // cells straight into the pool.
    Cell* c = head_.load(std::memory_order_relaxed);
    while (c != nullptr) {
      Cell* next = strip(c->next.load(std::memory_order_relaxed));
      pool().destroy(c);
      c = next;
    }
  }

  /// Insert one copy of `v`. Lock-free, O(1); the cell comes from the pool
  /// (non-spanning adds are the single hottest allocation site).
  void add(Vertex v) {
    auto guard = ebr::pin();
    Cell* cell = pool().create(v);
    Cell* h = head_.load(std::memory_order_seq_cst);
    for (;;) {
      cell->next.store(h, std::memory_order_relaxed);
      if (head_.compare_exchange_weak(h, cell, std::memory_order_seq_cst))
        break;
    }
    approx_size_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Remove one copy of `v`. Returns false if no live copy was found.
  /// Lock-free: marks the cell dead, then tries once to unlink it.
  bool remove_one(Vertex v) {
    auto guard = ebr::pin();
    bool removed = false;
    walk([&](std::atomic<Cell*>& link, Cell* c, Cell* nx) {
      if (c->value != v) return true;
      while (!c->next.compare_exchange_strong(nx, mark(nx),
                                              std::memory_order_seq_cst)) {
        if (marked(nx)) return true;  // someone else claimed it; keep looking
      }
      approx_size_.fetch_sub(1, std::memory_order_seq_cst);
      removed = true;
      Cell* expected = c;
      if (link.compare_exchange_strong(expected, nx, std::memory_order_seq_cst))
        pool().retire(c);
      return false;
    });
    return removed;
  }

  /// Visit every live value; f returning false stops the scan early. f may
  /// add to or remove from this multiset.
  template <typename F>
  bool for_each(F&& f) const {
    auto guard = ebr::pin();  // the walk retires the dead runs it unlinks
    return walk([&](std::atomic<Cell*>&, Cell* c, Cell*) { return f(c->value); });
  }

  /// Racy size estimate; used only as the "are there candidates?" hint that
  /// feeds subtree flags (Listing 6's `node.edges.size > 0`).
  uint64_t approx_size() const noexcept {
    const int64_t s =
        static_cast<int64_t>(approx_size_.load(std::memory_order_seq_cst));
    return s > 0 ? static_cast<uint64_t>(s) : 0;
  }

  bool empty_hint() const noexcept { return approx_size() == 0; }

 private:
  friend class VertexMultisetTestPeer;

  struct Cell {
    Vertex value;
    std::atomic<Cell*> next{nullptr};
  };

  static NodePool<Cell>& pool() { return NodePool<Cell>::instance(); }

  static bool marked(Cell* p) noexcept {
    return (reinterpret_cast<uintptr_t>(p) & 1) != 0;
  }
  static Cell* mark(Cell* p) noexcept {
    return reinterpret_cast<Cell*>(reinterpret_cast<uintptr_t>(p) | 1);
  }
  static Cell* strip(Cell* p) noexcept {
    return reinterpret_cast<Cell*>(reinterpret_cast<uintptr_t>(p) & ~uintptr_t{1});
  }

  /// One pass over the list. Calls f(link, cell, next) on each cell seen
  /// live, where `link` is the last live link before the cell (head_ or the
  /// previous live cell's next) and `next` the cell's unmarked next; f
  /// returning false stops the pass. Each run of marked cells is unlinked
  /// with one CAS of `link` from the run's first cell to the cell after it.
  /// A failed CAS (a new head, or a predecessor marked meanwhile) leaves the
  /// run to a later pass; the walk carries on past it either way, so no live
  /// cell is visited twice. Caller holds an EBR guard.
  template <typename F>
  bool walk(F&& f) const {
    std::atomic<Cell*>* link = &head_;
    Cell* c = head_.load(std::memory_order_seq_cst);
    while (c != nullptr) {
      Cell* nx = c->next.load(std::memory_order_seq_cst);
      if (marked(nx)) {
        Cell* end = strip(nx);
        while (end != nullptr) {
          Cell* en = end->next.load(std::memory_order_seq_cst);
          if (!marked(en)) break;
          end = strip(en);
        }
        Cell* expected = c;
        if (link->compare_exchange_strong(expected, end,
                                          std::memory_order_seq_cst)) {
          // The run's next links are frozen, so this is exactly the chain
          // the CAS cut out; only its unlinker retires it.
          while (c != end) {
            Cell* d = c;
            c = strip(d->next.load(std::memory_order_seq_cst));
            pool().retire(d);
          }
        }
        c = end;
        continue;
      }
      if (!f(*link, c, nx)) return false;
      link = &c->next;
      c = strip(c->next.load(std::memory_order_seq_cst));
    }
    return true;
  }

  mutable std::atomic<Cell*> head_{nullptr};
  std::atomic<int64_t> approx_size_{0};
};

}  // namespace condyn
