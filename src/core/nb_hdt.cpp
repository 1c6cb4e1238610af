#include "core/nb_hdt.hpp"

#include <cassert>
#include <vector>

#include "core/stats.hpp"
#include "util/ebr.hpp"
#include "util/node_pool.hpp"

namespace condyn {

using ett::Forest;
using ett::Node;

namespace {

/// Removal descriptors and proposal cells are allocated per spanning remove
/// / per proposal and retired through EBR; both recycle through the pool
/// (DESIGN.md §7.1). A reused RemovalOp is placement-new'd, so its slot
/// starts empty again.
NodePool<RemovalOp>& op_pool() { return NodePool<RemovalOp>::instance(); }
NodePool<RemovalOp::Cell>& cell_pool() {
  return NodePool<RemovalOp::Cell>::instance();
}

int levels_for(Vertex n) noexcept {
  int l = 0;
  while ((Vertex{1} << (l + 1)) <= n) ++l;  // ⌊log2 n⌋
  return l;
}

constexpr EdgeStatus kRemoved = EdgeStatus::kRemoved;
constexpr EdgeStatus kInitial = EdgeStatus::kInitial;
constexpr EdgeStatus kNonSpanning = EdgeStatus::kNonSpanning;
constexpr EdgeStatus kSpanning = EdgeStatus::kSpanning;
constexpr EdgeStatus kInProgress = EdgeStatus::kInProgress;

}  // namespace

NbHdt::NbHdt(Vertex n, NbLockMode mode, bool sampling)
    : n_(n),
      lmax_(levels_for(std::max<Vertex>(n, 2))),
      mode_(mode),
      sampling_(sampling),
      forests_(std::make_unique<std::atomic<Forest*>[]>(lmax_ + 2)),
      states_(2 * static_cast<std::size_t>(n)),  // steady-state |E| guess
      adj_(std::make_unique<ShardedU64Map<VertexMultiset>[]>(lmax_ + 2)) {
  for (int i = 0; i <= lmax_ + 1; ++i)
    forests_[i].store(nullptr, std::memory_order_relaxed);
  forest0_ = new Forest(n_, 0);
  forests_[0].store(forest0_, std::memory_order_release);
}

NbHdt::~NbHdt() {
  for (int i = 0; i <= lmax_ + 1; ++i)
    delete forests_[i].load(std::memory_order_relaxed);
}

Forest& NbHdt::forest(int i) {
  assert(i <= lmax_ + 1);
  Forest* f = forests_[i].load(std::memory_order_acquire);
  if (f != nullptr) return *f;
  auto* fresh = new Forest(n_, i);
  Forest* expected = nullptr;
  if (forests_[i].compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

// ---------------------------------------------------------------------------
// Edge information management (Appendix C "Edge Management"): a copy of a
// non-spanning edge is inserted in the multisets of both endpoints *before*
// the linearizing status CAS and removed only *after* it, so a live
// non-spanning edge of level r always has at least one visible copy.
// ---------------------------------------------------------------------------

void NbHdt::add_info(int level, const Edge& e) {
  adj_[level].get_or_create(e.u)->add(e.v);
  adj_[level].get_or_create(e.v)->add(e.u);
  Forest& f = forest(level);
  f.nonspanning_inc(e.u);  // raises subtree flags bottom-up (Listing 6)
  f.nonspanning_inc(e.v);
}

void NbHdt::remove_info(int level, const Edge& e) {
  VertexMultiset* mu = adj_[level].find(e.u);
  VertexMultiset* mv = adj_[level].find(e.v);
  assert(mu != nullptr && mv != nullptr);
  mu->remove_one(e.v);
  mv->remove_one(e.u);
  Forest& f = forest(level);
  f.nonspanning_dec(e.u);  // flags deliberately stay possibly-true
  f.nonspanning_dec(e.v);
}

// ---------------------------------------------------------------------------
// Lock-free side queries
// ---------------------------------------------------------------------------

bool NbHdt::has_edge(Vertex u, Vertex v) const {
  return states_.load(Edge(u, v)).present();
}

bool NbHdt::is_spanning(Vertex u, Vertex v) const {
  const EdgeStatus s = states_.load(Edge(u, v)).status();
  return s == kSpanning || s == kInProgress;
}

int NbHdt::edge_level(Vertex u, Vertex v) const {
  const EdgeState st = states_.load(Edge(u, v));
  return st.present() ? st.level() : -1;
}

// ---------------------------------------------------------------------------
// Pending-cut membership for lock-free adders
// ---------------------------------------------------------------------------

NbHdt::CutSide NbHdt::cut_side(const RemovalOp* op, Vertex x) {
  // Parent-pointer-only ascent: while the cut is pending every chain of the
  // component terminates at old_root, and it passes through detached_root
  // exactly when x is on the detached side (the detached piece's root keeps
  // a stale parent into the other piece by invariant I2). Once the cut
  // commits, the detached side's chains terminate at detached_root instead,
  // which this function reports as kElsewhere — making can_be_replacement
  // false, exactly as required after the removal's linearization point.
  const Node* cur = forest0_->vertex_node(x);
  bool saw_detached = false;
  for (;;) {
    if (cur == op->detached_root) saw_detached = true;
    // Acquire suffices: this ascent only needs each pointer it dereferences
    // to be a fully-published node, like every reader ascent (§7.3).
    const Node* p = cur->parent.load(std::memory_order_acquire);
    if (p == nullptr) break;
    cur = p;
  }
  if (cur != op->old_root) return CutSide::kElsewhere;
  return saw_detached ? CutSide::kDetachedSide : CutSide::kRootSide;
}

bool NbHdt::can_be_replacement(const RemovalOp* op, const Edge& e) {
  // The edge being removed is the one spanning edge that crosses its own
  // pending cut — and the one edge that must never be its own replacement.
  // Without this check, a straggling joiner of the edge's (long-completed)
  // addition can propose it with its stale INITIAL word, and because the
  // completed addition used the *same incarnation*, the finalize stamp
  // check would accept the already-spanning edge as the winner: the removal
  // would splice the edge it is deleting back in and leak its arcs.
  if (Edge(op->u, op->v) == e) return false;
  const CutSide su = cut_side(op, e.u);
  if (su == CutSide::kElsewhere) return false;
  const CutSide sv = cut_side(op, e.v);
  return sv != CutSide::kElsewhere && su != sv;
}

// ---------------------------------------------------------------------------
// The replacement-proposal slot protocol (Listing 9 lines 29-51)
// ---------------------------------------------------------------------------

NbHdt::ProposeResult NbHdt::propose_replacement(RemovalOp* op, const Edge& e,
                                                EdgeState state,
                                                EdgeStateCell* rec,
                                                RemovalOp::Cell* winner) {
  auto guard = ebr::pin();
  RemovalOp::Cell* mine = nullptr;
  for (;;) {
    RemovalOp::Cell* cur = op->slot.load(std::memory_order_seq_cst);
    if (cur == RemovalOp::closed()) {
      cell_pool().destroy(mine);
      return ProposeResult::kClosed;
    }
    if (cur == nullptr) {
      if (mine == nullptr) mine = cell_pool().create(e, state, rec);
      RemovalOp::Cell* expected = nullptr;
      if (op->slot.compare_exchange_strong(expected, mine,
                                           std::memory_order_seq_cst)) {
        return ProposeResult::kProposed;
      }
      continue;
    }
    if (cur->edge == Edge(op->u, op->v)) {
      // Defunct by definition (see can_be_replacement): evict.
      RemovalOp::Cell* expected = cur;
      if (op->slot.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_seq_cst)) {
        cell_pool().retire(cur);
      }
      continue;
    }
    if (cur->edge == e && cur->state.stamp() == state.stamp()) {
      // The same incarnation of the same edge is already proposed (a joiner
      // of the same addition, or the writer re-proposing after a status
      // race): count as ours. The stamp comparison is essential: a cell for
      // a *previous* incarnation of this edge can linger in the slot after
      // a demote + non-blocking remove + re-add, and treating it as "ours"
      // would let the new incarnation turn SPANNING while finalize rightly
      // rejects the stale cell — an orphaned spanning edge with no arcs.
      // A stale same-edge cell instead falls through to the help/evict path
      // below, which evicts it (its CAS word can never match again).
      cell_pool().destroy(mine);
      return ProposeResult::kProposed;
    }
    // A different edge occupies the slot — help finalize it (make it
    // spanning) so the occupancy is justified, or evict it if it is defunct.
    EdgeState occ = cur->state;
    if (cur->rec->cas(occ, occ.with(kSpanning, 0), 17)) {
      *winner = *cur;
      cell_pool().destroy(mine);
      return ProposeResult::kOtherWon;
    }
    const EdgeState now = cur->rec->load();
    if (now.status() == kSpanning && now.stamp() == occ.stamp()) {
      *winner = *cur;
      cell_pool().destroy(mine);
      return ProposeResult::kOtherWon;
    }
    // The occupant was removed, demoted to plain non-spanning by a joiner,
    // or replaced by a new incarnation: clear the slot and retry.
    RemovalOp::Cell* expected = cur;
    if (op->slot.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_seq_cst)) {
      cell_pool().retire(cur);
    }
  }
}

RemovalOp::Cell* NbHdt::finalize_replacement_search(RemovalOp* op) {
  auto guard = ebr::pin();
  for (;;) {
    RemovalOp::Cell* cur = op->slot.load(std::memory_order_seq_cst);
    assert(cur != RemovalOp::closed());
    if (cur == nullptr) {
      RemovalOp::Cell* expected = nullptr;
      if (op->slot.compare_exchange_strong(expected, RemovalOp::closed(),
                                           std::memory_order_seq_cst)) {
        return nullptr;  // slot closed; no replacement
      }
      continue;
    }
    if (cur->edge == Edge(op->u, op->v)) {
      RemovalOp::Cell* expected = cur;
      if (op->slot.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_seq_cst)) {
        cell_pool().retire(cur);
      }
      continue;
    }
    EdgeState occ = cur->state;
    if (cur->rec->cas(occ, occ.with(kSpanning, 0), 18)) return cur;
    const EdgeState now = cur->rec->load();
    if (now.status() == kSpanning && now.stamp() == occ.stamp()) return cur;
    RemovalOp::Cell* expected = cur;
    if (op->slot.compare_exchange_strong(expected, nullptr,
                                         std::memory_order_seq_cst)) {
      cell_pool().retire(cur);
    }
  }
}

// ---------------------------------------------------------------------------
// add_edge (Listings 8 + 9)
// ---------------------------------------------------------------------------

bool NbHdt::add_edge(Vertex u, Vertex v) {
  if (u == v) return false;
  const Edge e(u, v);
  EdgeStateCell* rec = states_.cell(e);

  // Acquire an INITIAL incarnation of the edge, or join the one in flight.
  // A fresh incarnation gets a fresh stamp — the ABA defense of Appendix C.
  EdgeState st = rec->load();
  EdgeState init;
  bool creator = false;
  for (;;) {
    if (st.status() == kRemoved) {
      const EdgeState want(kInitial, 0, st.stamp() + 1);
      if (rec->cas(st, want, 1)) {
        init = want;
        creator = true;
        break;
      }
      continue;  // st refreshed
    }
    if (st.status() == kInitial) {
      init = st;  // join: help complete, then report "was already present"
      break;
    }
    return false;  // present (non-spanning / spanning / in-progress)
  }

  auto& stats = op_stats::local();
  for (;;) {
    const EdgeState cur = rec->load();
    if (cur != init) {
      // Our incarnation was committed (possibly by a helper or joiner).
      if (cur.status() == kInProgress && cur.stamp() == init.stamp()) {
        // A writer is inserting it as a spanning edge: synchronize by
        // passing through the locks (Listing 8 lines 14-15).
        with_locked(u, v, [] {});
      }
      if (creator) ++stats.additions;
      return creator;
    }
    if (connected(u, v)) {
      if (try_add_non_spanning(e, init, rec)) {
        if (creator) ++stats.additions;
        return creator;
      }
      continue;
    }
    blocking_add_edge(e, init, rec);
    if (creator) ++stats.additions;
    return creator;
  }
}

bool NbHdt::try_add_non_spanning(const Edge& e, EdgeState init,
                                 EdgeStateCell* rec) {
  auto guard = ebr::pin();
  auto& stats = op_stats::local();

  // Publish the edge info *before* looking for a concurrent removal — the
  // ordering Theorem 4.1's case analysis rests on.
  add_info(0, e);

  ett::Level0Vertex* root = candidate_root(forest0_->vertex_node(e.u));
  auto* op = static_cast<RemovalOp*>(
      root->removal_op.load(std::memory_order_seq_cst));
  if (op != nullptr) {
    if (can_be_replacement(op, e)) {
      RemovalOp::Cell winner;
      switch (propose_replacement(op, e, init, rec, &winner)) {
        case ProposeResult::kProposed: {
          // Our edge is the replacement: it reconnects the halves, so it is
          // spanning. The writer performs the physical relink.
          remove_info(0, e);
          EdgeState expect = init;
          rec->cas(expect, init.with(kSpanning, 0), 2);  // helper may have won
          ++stats.nonblocking_updates;
          return true;
        }
        case ProposeResult::kClosed: {
          // The removal completed without a replacement; our edge now
          // connects different components (Listing 9 lines 15-19).
          remove_info(0, e);
          blocking_add_edge(e, init, rec);
          return true;
        }
        case ProposeResult::kOtherWon:
          break;  // a replacement exists; the component stays connected
      }
    }
  }

  // Re-check and linearize as a plain non-spanning edge (Listing 9 21-26).
  if (forest0_->connected(e.u, e.v)) {
    EdgeState expect = init;
    if (rec->cas(expect, init.with(kNonSpanning, 0), 3)) {
      ++stats.nonspanning_additions;
      ++stats.nonblocking_updates;
      return true;
    }
  }
  remove_info(0, e);
  return false;  // restart the outer loop
}

void NbHdt::blocking_add_edge(const Edge& e, EdgeState init,
                              EdgeStateCell* rec) {
  auto& stats = op_stats::local();
  with_locked(e.u, e.v, [&] {
    EdgeState cur = rec->load();
    if (cur != init) return;  // committed by a helper meanwhile
    if (!forest0_->connected_writer(e.u, e.v)) {
      // Spanning insertion: IN_PROGRESS marks the window so that concurrent
      // additions of the same edge wait instead of observing a half-inserted
      // spanning edge (Appendix C "Edge Statuses").
      if (!rec->cas(cur, init.with(kInProgress, 0), 4)) return;
      forest0_->link(e.u, e.v);
      forest0_->set_arc_at_level(e.u, e.v, true);
#ifdef CONDYN_TRACE_EDGE_STATES
      rec->trace(22, 0, 0);  // arcs created (blocking spanning add)
#endif
      rec->store(init.with(kSpanning, 0), 5);
    } else {
      add_info(0, e);
      EdgeState expect = init;
      if (!rec->cas(expect, init.with(kNonSpanning, 0), 6)) {
        remove_info(0, e);
        return;
      }
      ++stats.nonspanning_additions;
    }
  });
}

// ---------------------------------------------------------------------------
// remove_edge (Listing 7)
// ---------------------------------------------------------------------------

bool NbHdt::remove_edge(Vertex u, Vertex v) {
  if (u == v) return false;
  const Edge e(u, v);
  EdgeStateCell* rec = states_.cell(e);
  auto& stats = op_stats::local();
  for (;;) {
    const EdgeState st = rec->load();
    switch (st.status()) {
      case kRemoved:
        return false;
      case kInitial:
        // Not added yet: linearize this removal before that addition.
        return false;
      case kNonSpanning:
        if (try_remove_non_spanning(e, st, rec)) {
          ++stats.removals;
          ++stats.nonspanning_removals;
          ++stats.nonblocking_updates;
          return true;
        }
        continue;
      case kSpanning:
      case kInProgress:
        if (blocking_remove_edge(e, rec)) {
          ++stats.removals;
          return true;
        }
        return false;
    }
  }
}

bool NbHdt::try_remove_non_spanning(const Edge& e, EdgeState st,
                                    EdgeStateCell* rec) {
  EdgeState expect = st;
  if (!rec->cas(expect, st.with(kRemoved, 0), 7)) return false;
  remove_info(st.level(), e);  // physical deletion after the linearization
  return true;
}

bool NbHdt::blocking_remove_edge(const Edge& e, EdgeStateCell* rec) {
  bool removed = false;
  auto& stats = op_stats::local();
  with_locked(e.u, e.v, [&] {
    for (;;) {
      const EdgeState st = rec->load();
      switch (st.status()) {
        case kRemoved:
        case kInitial:
          return;  // removed (or never committed) by someone else
        case kNonSpanning:
          if (try_remove_non_spanning(e, st, rec)) {
            ++stats.nonspanning_removals;
            removed = true;
            return;
          }
          continue;
        case kInProgress:
          // Unreachable: IN_PROGRESS is set and cleared under the same
          // component/global locks we now hold.
          assert(false && "IN_PROGRESS observed under the component locks");
          return;
        case kSpanning:
          remove_spanning_edge(e, st, rec);
          removed = true;
          return;
      }
    }
  });
  return removed;
}

// ---------------------------------------------------------------------------
// Spanning-edge removal: replacement search across levels, slot-coordinated
// at level 0 (Listings 7 + 10)
// ---------------------------------------------------------------------------

void NbHdt::remove_spanning_edge(const Edge& e, EdgeState st,
                                 EdgeStateCell* rec) {
  auto guard = ebr::pin();  // scans traverse lock-free multisets
  const int le = st.level();

  // Private levels are cut immediately; the published F_0 split stays
  // pending until the search settles, so readers observe the removal only
  // at its linearization point — or never, if a replacement exists.
  for (int i = le; i >= 1; --i) forest(i).cut(e.u, e.v);
  Forest::CutHandle h = forest0_->cut_prepare(e.u, e.v);
#ifdef CONDYN_TRACE_EDGE_STATES
  rec->trace(20, 0, 0);  // arcs removed from F0 (pending)
#endif

  Edge repl;
  int found_level = -1;
  bool found = search_upper_levels(e, le, &repl, &found_level);

  if (!found) {
    // Level-0 phase: publish the removal descriptor so concurrent
    // non-blocking additions can propose their edge as the replacement.
    Node* tv = Forest::subtree_vertices(h.root_u) <=
                       Forest::subtree_vertices(h.root_v)
                   ? h.root_u
                   : h.root_v;
    Node* other = (tv == h.root_u) ? h.root_v : h.root_u;
    auto* op = op_pool().create();
    op->u = e.u;
    op->v = e.v;
    op->old_root = h.old_root;
    op->detached_root = (h.root_u == h.old_root) ? h.root_v : h.root_u;
    h.old_root->as_level0().removal_op.store(op, std::memory_order_seq_cst);

    // Lazy promotion (DESIGN.md §4.2). The flag is read only after the
    // descriptor is published: an adder raises flags and then loads
    // removal_op (try_add_non_spanning), so either we see its flag or it
    // sees the descriptor and proposes or linearizes as non-spanning.
    if (tv->sub_nonspanning.load(std::memory_order_seq_cst)) {
      ++op_stats::local().replacement_searches;
      level0_search(op, LevelSearch{0, tv, other});
    }
    RemovalOp::Cell* winner = finalize_replacement_search(op);

    if (winner != nullptr) {
      repl = winner->edge;
      found_level = 0;
      found = true;
      ++op_stats::local().replacements_found;
      forest0_->cut_relink(h, repl.u, repl.v);
      forest0_->set_arc_at_level(repl.u, repl.v, true);
#ifdef CONDYN_TRACE_EDGE_STATES
      winner->rec->trace(21, 0, 0);  // arcs created for winner
#endif
      // Replace the winner with the closed sentinel before anything else:
      // a proposer still holding this descriptor could otherwise observe the
      // winner's later removal, clear the slot, and install its own edge
      // into a descriptor no writer will ever serve — an orphaned
      // SPANNING-status edge with no forest arcs. While we hold the lock the
      // winner stays kSpanning, so no helper can clear it before this store,
      // which also makes us the unique retirer of the cell.
      op->slot.store(RemovalOp::closed(), std::memory_order_seq_cst);
      cell_pool().retire(winner);
    } else {
      forest0_->cut_commit(h);
#ifdef CONDYN_TRACE_EDGE_STATES
      rec->trace(24, 0, 0);  // split committed
#endif
    }
    h.old_root->as_level0().removal_op.store(nullptr,
                                             std::memory_order_seq_cst);
    op_pool().retire(op);
  } else {
    // Replacement found above level 0: no descriptor was ever published, so
    // no proposal can exist; relink and record the new spanning edge.
    for (int j = found_level; j >= 1; --j) forest(j).link(repl.u, repl.v);
    forest0_->cut_relink(h, repl.u, repl.v);
    forest(found_level).set_arc_at_level(repl.u, repl.v, true);
#ifdef CONDYN_TRACE_EDGE_STATES
    states_.cell(repl)->trace(23, 0, 0);  // arcs created (upper-level repl)
#endif
  }

  // The removed edge leaves the graph; same stamp — the next incarnation of
  // this edge bumps it (kRemoved → kInitial).
  rec->store(st.with(kRemoved, 0), 8);
}

bool NbHdt::search_upper_levels(const Edge& removed, int top_level, Edge* out,
                                int* out_level) {
  auto& stats = op_stats::local();
  for (int i = top_level; i >= 1; --i) {
    Forest& fi = forest(i);
    Node* ru = ett::find_root(fi.vertex_node(removed.u));
    Node* rv = ett::find_root(fi.vertex_node(removed.v));
    assert(ru != rv);
    Node* tv =
        Forest::subtree_vertices(ru) <= Forest::subtree_vertices(rv) ? ru : rv;
    Node* other = (tv == ru) ? rv : ru;
    // Lazy promotion (DESIGN.md §4.2): only level-0 additions are lock-free,
    // so under our locks a false flag means tv has no level-i non-tree edge
    // to find, and none to promote that would need tv's tree edges above.
    if (!tv->sub_nonspanning.load(std::memory_order_seq_cst)) continue;
    ++stats.replacement_searches;
    const LevelSearch ls{i, tv, other};
    if (sampling_ && sample_level(ls, out)) {
      *out_level = i;
      ++stats.sampling_hits;
      ++stats.replacements_found;
      return true;
    }
    promote_spanning(i, tv);
    if (scan_level(ls, out)) {
      *out_level = i;
      ++stats.replacements_found;
      return true;
    }
  }
  return false;
}

namespace {

/// Shared subtree walk: visit every vertex node whose subtree flag promises
/// non-spanning edges; `visit(vertex_node)` returns true to stop the walk.
/// When `recalc` is set, repair flags bottom-up (full scans lower stale
/// flags; sampling must not, it skips edges without processing them).
template <typename V>
bool walk_flagged(Node* x, bool recalc, V&& visit) {
  if (x == nullptr || !x->sub_nonspanning.load(std::memory_order_seq_cst))
    return false;
  bool found = false;
  if (x->is_vertex() &&
      x->local_nonspanning.load(std::memory_order_seq_cst) > 0) {
    found = visit(x);
  }
  if (!found) found = walk_flagged(x->left, recalc, visit);
  if (!found) found = walk_flagged(x->right, recalc, visit);
  if (recalc) Forest::recalculate_flags(x);
  return found;
}

}  // namespace

bool NbHdt::sample_level(const LevelSearch& ls, Edge* out) {
  // Iyer et al. fast path: test up to kSampleBudget candidates without
  // promoting anything (§5.2 "Sampling").
  Forest& fi = forest(ls.level);
  int budget = kSampleBudget;
  bool found = false;
  walk_flagged(ls.tv_root, /*recalc=*/false, [&](Node* vx) {
    const Vertex a = vx->tail;
    VertexMultiset* ms = adj_[ls.level].find(a);
    if (ms == nullptr) return false;
    ms->for_each([&](Vertex w) {
      if (budget-- <= 0) return false;
      const Edge e(a, w);
      EdgeStateCell* rec = states_.cell(e);
      EdgeState st = rec->load();
      if (st.status() != kNonSpanning || st.level() != ls.level) return true;
      if (ett::find_root(fi.vertex_node(w)) != ls.other_root) return true;
      if (rec->cas(st, st.with(kSpanning, ls.level), 11)) {
        remove_info(ls.level, e);
        *out = e;
        found = true;
        return false;
      }
      return true;
    });
    return found || budget <= 0;
  });
  return found;
}

bool NbHdt::scan_level(const LevelSearch& ls, Edge* out) {
  const int i = ls.level;
  assert(i >= 1 && i + 1 <= lmax_ + 1);
  Forest& fi = forest(i);
  bool found = false;
  walk_flagged(ls.tv_root, /*recalc=*/true, [&](Node* vx) {
    const Vertex a = vx->tail;
    VertexMultiset* ms = adj_[i].find(a);
    if (ms == nullptr) return false;
    ms->for_each([&](Vertex w) {
      const Edge e(a, w);
      EdgeStateCell* rec = states_.cell(e);
      for (EdgeState st = rec->load();;) {
        if (st.status() != kNonSpanning || st.level() != i)
          return true;  // stale copy (removed / promoted / re-added)
        Node* rw = ett::find_root(fi.vertex_node(w));
        if (rw == ls.other_root) {
          // Replacement found. Levels ≥ 1 have no proposal slot — only
          // level-0 additions are non-blocking — so adopt directly.
          if (!rec->cas(st, st.with(kSpanning, i), 9)) continue;  // st refreshed
          remove_info(i, e);
          *out = e;
          found = true;
          return false;
        }
        if (rw != ls.tv_root) return true;  // foreign/stale; skip
        // Both endpoints inside the smaller piece: promote to amortize this
        // visit (info goes to level i+1 before the status CAS, the loser
        // copy is deleted after — the multiset invariant's ordering).
        add_info(i + 1, e);
        EdgeState expect = st;
        if (rec->cas(expect, st.with(kNonSpanning, i + 1), 10)) {
          remove_info(i, e);
        } else {
          remove_info(i + 1, e);
        }
        return true;
      }
    });
    return found;
  });
  return found;
}

namespace {

void collect_level_arcs(const Node* x, std::vector<Edge>& out) {
  if (x == nullptr || !x->sub_level_arc) return;
  if (x->arc_at_level && x->tail < x->head)  // each arc pair reported once
    out.emplace_back(x->tail, x->head);
  collect_level_arcs(x->left, out);
  collect_level_arcs(x->right, out);
}

}  // namespace

void NbHdt::promote_spanning(int i, Node* tv_root) {
  assert(i + 1 <= lmax_);
  // Collect level-i spanning arcs inside the smaller piece, then raise them.
  std::vector<Edge> arcs;
  collect_level_arcs(tv_root, arcs);

  Forest& fi = forest(i);
  Forest& fn = forest(i + 1);
  for (const Edge& e : arcs) {
    fi.set_arc_at_level(e.u, e.v, false);
    fn.link(e.u, e.v);
    fn.set_arc_at_level(e.u, e.v, true);
    EdgeStateCell* rec = states_.cell(e);
    EdgeState st = rec->load();
#ifdef CONDYN_TRACE_EDGE_STATES
    if (st.status() != kSpanning || st.level() != i) rec->dump_trace();
#endif
    assert(st.status() == kSpanning && st.level() == i &&
           "arc flags and edge states must agree under the locks we hold");
    [[maybe_unused]] const bool ok = rec->cas(st, st.with(kSpanning, i + 1), 12);
    assert(ok && "spanning states only change under the locks we hold");
  }
}

void NbHdt::level0_search(RemovalOp* op, const LevelSearch& ls) {
  auto& stats = op_stats::local();
  bool found = false;
  if (sampling_) {
    int budget = kSampleBudget;
    walk_flagged(ls.tv_root, /*recalc=*/false, [&](Node* vx) {
      const Vertex a = vx->tail;
      VertexMultiset* ms = adj_[0].find(a);
      if (ms == nullptr) return false;
      ms->for_each([&](Vertex w) {
        if (budget-- <= 0) return false;
        found = level0_visit_edge(op, ls, a, w, /*allow_promote=*/false);
        return !found;
      });
      return found || budget <= 0;
    });
    if (found) {
      ++stats.sampling_hits;
      return;
    }
  }
  promote_spanning(0, ls.tv_root);
  walk_flagged(ls.tv_root, /*recalc=*/true, [&](Node* vx) {
    const Vertex a = vx->tail;
    VertexMultiset* ms = adj_[0].find(a);
    if (ms == nullptr) return false;
    ms->for_each([&](Vertex w) {
      found = level0_visit_edge(op, ls, a, w, /*allow_promote=*/true);
      return !found;
    });
    return found;
  });
}

bool NbHdt::level0_visit_edge(RemovalOp* op, const LevelSearch& ls, Vertex a,
                              Vertex w, bool allow_promote) {
  const Edge e(a, w);
  EdgeStateCell* rec = states_.cell(e);
  const EdgeState first = rec->load();
  for (EdgeState st = first;;) {
    if (st.stamp() != first.stamp()) return false;  // new incarnation: stale copy
    if (st.status() == kInitial) {
      // A concurrent addition is in flight; the paper requires helping it
      // (Listing 10 lines 13-27) — skipping could let the edge linearize as
      // non-spanning across a committed split.
      Node* rw = Forest::find_piece_root(forest0_->vertex_node(w));
      if (rw == ls.other_root) {
        RemovalOp::Cell winner;
        switch (propose_replacement(op, e, st, rec, &winner)) {
          case ProposeResult::kProposed: {
            EdgeState expect = st;
            if (rec->cas(expect, st.with(kSpanning, 0), 13)) return true;
            const EdgeState now = rec->load();
            if (now.status() == kSpanning && now.stamp() == st.stamp())
              return true;  // the proposer's own CAS won
            st = now;  // a joiner demoted it to NON-SPANNING: reprocess
            continue;
          }
          case ProposeResult::kOtherWon:
            return true;  // the slot already holds a finalized winner
          case ProposeResult::kClosed:
            assert(false && "slot closed during our own search");
            return false;
        }
      }
      if (rw == ls.tv_root) {
        // Same side: help complete it as a plain non-spanning edge.
        add_info(0, e);
        EdgeState expect = st;
        if (rec->cas(expect, st.with(kNonSpanning, 0), 14)) {
          st = st.with(kNonSpanning, 0);
        } else {
          remove_info(0, e);
          st = expect;
        }
        continue;
      }
      return false;  // endpoints in another component; the adder re-checks
    }
    if (st.status() == kNonSpanning && st.level() == 0) {
      Node* rw = Forest::find_piece_root(forest0_->vertex_node(w));
      if (rw == ls.other_root) {
        // Candidate: make it spanning *first*, then publish through the slot
        // (Listing 10 lines 29-35); revert if a foreign proposal won.
        EdgeState expect = st;
        if (!rec->cas(expect, st.with(kSpanning, 0), 15)) {
          st = expect;
          continue;
        }
        RemovalOp::Cell winner;
        switch (propose_replacement(op, e, st, rec, &winner)) {
          case ProposeResult::kProposed:
            remove_info(0, e);
            return true;
          case ProposeResult::kOtherWon:
            rec->store(st, 16);  // revert: the slot winner reconnects instead
            return true;
          case ProposeResult::kClosed:
            assert(false && "slot closed during our own search");
            return false;
        }
      }
      if (rw != ls.tv_root) return false;  // stale
      if (!allow_promote) return false;    // sampling pass: just skip
      if (1 > lmax_) return false;         // degenerate 2-vertex graphs
      add_info(1, e);
      EdgeState expect = st;
      if (rec->cas(expect, st.with(kNonSpanning, 1), 19)) {
        remove_info(0, e);
      } else {
        remove_info(1, e);
      }
      return false;
    }
    return false;  // removed / spanning / wrong level: stale copy
  }
}

// ---------------------------------------------------------------------------
// Invariant checking (tests; quiescent structure only)
// ---------------------------------------------------------------------------

void NbHdt::check_invariants() {
  states_.for_each([&](const Edge& e, EdgeState st) {
    switch (st.status()) {
      case kRemoved:
        return;
      case kInitial:
      case kInProgress:
        assert(false && "transient status on a quiescent structure");
        return;
      case kSpanning: {
        for (int i = 0; i <= st.level(); ++i) {
          [[maybe_unused]] Forest* f = forest_if(i);
          assert(f != nullptr && f->has_edge(e.u, e.v));
        }
        for (int i = st.level() + 1; i <= lmax_; ++i) {
          [[maybe_unused]] Forest* f = forest_if(i);
          assert(f == nullptr || !f->has_edge(e.u, e.v));
        }
        break;
      }
      case kNonSpanning: {
        // At least one live copy in each endpoint's multiset at this level.
        for (auto [x, y] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
          [[maybe_unused]] VertexMultiset* ms = adj_[st.level()].find(x);
          assert(ms != nullptr);
          [[maybe_unused]] bool present = false;
          ms->for_each([&](Vertex t) {
            if (t == y) {
              present = true;
              return false;
            }
            return true;
          });
          assert(present);
        }
        // Both endpoints connected at the edge's level.
        [[maybe_unused]] Forest* f = forest_if(st.level());
        assert(f != nullptr);
        assert(ett::find_root(f->vertex_node(e.u)) ==
               ett::find_root(f->vertex_node(e.v)));
        break;
      }
    }
    // Component-size invariant: |component of e in G_l| ≤ n / 2^l.
    Forest* f = forest_if(st.level());
    if (f != nullptr) {
      Node* nu = f->vertex_node_if_exists(e.u);
      if (nu != nullptr) {
        [[maybe_unused]] const uint32_t sz =
            Forest::subtree_vertices(ett::find_root(nu));
        assert(static_cast<uint64_t>(sz) << st.level() <= n_);
      }
    }
  });
}

}  // namespace condyn
