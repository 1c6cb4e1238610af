#include "core/hdt.hpp"

#include <cassert>

#include "core/batch_runs.hpp"
#include "core/stats.hpp"

namespace condyn {

using ett::Forest;
using ett::Node;

namespace {

int levels_for(Vertex n) noexcept {
  int l = 0;
  while ((Vertex{1} << (l + 1)) <= n) ++l;  // ⌊log2 n⌋
  return l;
}

}  // namespace

Hdt::Hdt(Vertex n, bool sampling)
    : n_(n),
      lmax_(levels_for(std::max<Vertex>(n, 2))),
      sampling_(sampling),
      forests_(std::make_unique<std::atomic<Forest*>[]>(lmax_ + 2)),
      edges_(2 * static_cast<std::size_t>(n)),  // steady-state |E| guess
      adj_(std::make_unique<ShardedU64Map<AdjSet>[]>(lmax_ + 2)) {
  for (int i = 0; i <= lmax_ + 1; ++i)
    forests_[i].store(nullptr, std::memory_order_relaxed);
  forest0_ = new Forest(n_, 0);
  forests_[0].store(forest0_, std::memory_order_release);
}

Hdt::~Hdt() {
  for (int i = 0; i <= lmax_ + 1; ++i)
    delete forests_[i].load(std::memory_order_relaxed);
}

Forest& Hdt::forest(int i) {
  assert(i <= lmax_ + 1);
  Forest* f = forests_[i].load(std::memory_order_acquire);
  if (f != nullptr) return *f;
  auto* fresh = new Forest(n_, i);
  Forest* expected = nullptr;
  if (forests_[i].compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // lost the creation race (fine-grained writers)
  return *expected;
}

void Hdt::adj_insert(int level, Vertex a, Vertex b) {
  adj_[level].get_or_create(a)->s.insert(b);
  adj_[level].get_or_create(b)->s.insert(a);
  Forest& f = forest(level);
  f.nonspanning_inc(a);
  f.nonspanning_inc(b);
}

void Hdt::adj_erase(int level, Vertex a, Vertex b) {
  adj_[level].find(a)->s.erase(b);
  adj_[level].find(b)->s.erase(a);
  Forest& f = forest(level);
  f.nonspanning_dec(a);
  f.nonspanning_dec(b);
}

bool Hdt::has_edge(Vertex u, Vertex v) const {
  const EdgeInfo* info = edges_.find(Edge(u, v));
  return info != nullptr && info->present;
}

bool Hdt::is_spanning(Vertex u, Vertex v) const {
  const EdgeInfo* info = edges_.find(Edge(u, v));
  return info != nullptr && info->present && info->spanning;
}

int Hdt::edge_level(Vertex u, Vertex v) const {
  const EdgeInfo* info = edges_.find(Edge(u, v));
  return (info != nullptr && info->present) ? info->level : -1;
}

Hdt::UpdateOutcome Hdt::add_edge(Vertex u, Vertex v) {
  if (u == v) return {};
  auto& st = op_stats::local();
  EdgeInfo* info = edges_.get_or_create(Edge(u, v));
  if (info->present) return {};
  ++st.additions;

  if (forest0_->connected_writer(u, v)) {
    // Same component: record as a non-spanning edge of level 0.
    info->present = true;
    info->spanning = false;
    info->level = 0;
    adj_insert(0, u, v);
    ++st.nonspanning_additions;
    return {true, false};
  }
  info->present = true;
  info->spanning = true;
  info->level = 0;
  forest0_->link(u, v);
  forest0_->set_arc_at_level(u, v, true);
  return {true, true};
}

Hdt::UpdateOutcome Hdt::remove_edge(Vertex u, Vertex v) {
  if (u == v) return {};
  auto& st = op_stats::local();
  EdgeInfo* info = edges_.find(Edge(u, v));
  if (info == nullptr || !info->present) return {};
  ++st.removals;

  if (!info->spanning) {
    adj_erase(info->level, u, v);
    info->present = false;
    ++st.nonspanning_removals;
    return {true, false};
  }

  // Spanning-edge removal. Cut the private levels immediately; keep the
  // published F_0 split pending until the search settles (see class docs).
  const int le = info->level;
  for (int i = le; i >= 1; --i) forest(i).cut(u, v);
  Forest::CutHandle h = forest0_->cut_prepare(u, v);
  info->present = false;
  info->spanning = false;

  Edge repl;
  bool found = false;
  int found_level = -1;
  for (int i = le; i >= 0 && !found; --i) {
    Forest& fi = forest(i);
    Node* ru = (i == 0) ? h.root_u : Forest::find_piece_root(fi.vertex_node(u));
    Node* rv = (i == 0) ? h.root_v : Forest::find_piece_root(fi.vertex_node(v));
    assert(ru != rv);
    Node* tv = Forest::subtree_vertices(ru) <= Forest::subtree_vertices(rv)
                   ? ru
                   : rv;
    Node* other = (tv == ru) ? rv : ru;
    // Lazy promotion (DESIGN.md §4.2): with no level-i non-tree edge in the
    // smaller piece there is nothing to sample or scan, and no non-tree edge
    // will be promoted that would need tv's tree edges in F_{i+1}.
    if (!tv->sub_nonspanning.load(std::memory_order_seq_cst)) continue;
    ++st.replacement_searches;

    if (sampling_ && sample_replacement(i, tv, other, &repl)) {
      found = true;
      found_level = i;
      ++st.sampling_hits;
      break;
    }
    if (i + 1 <= lmax_) promote_level_arcs(i, tv);
    if (search_replacement(i, tv, other, &repl)) {
      found = true;
      found_level = i;
    }
  }

  if (found) {
    ++st.replacements_found;
    EdgeInfo* rinfo = edges_.find(repl);
    assert(rinfo != nullptr && rinfo->present && !rinfo->spanning);
    rinfo->spanning = true;
    rinfo->level = static_cast<uint8_t>(found_level);
    for (int j = found_level; j >= 1; --j) forest(j).link(repl.u, repl.v);
    forest0_->cut_relink(h, repl.u, repl.v);
    forest(found_level).set_arc_at_level(repl.u, repl.v, true);
  } else {
    forest0_->cut_commit(h);
  }
  return {true, true};
}

void Hdt::apply_batch(std::span<const Op> ops, BatchResult& out) {
  assert(out.values.size() == ops.size());
  for_each_batch_run(
      ops,
      [&](std::size_t i) {
        ++op_stats::local().reads;
        out.set_op(i, ops[i].kind, exec_query_writer(ops[i]));
      },
      [&](std::span<const uint32_t> order) {
        for (uint32_t k : order) {
          const Op& op = ops[k];
          const bool performed = op.kind == OpKind::kAdd
                                     ? add_edge(op.u, op.v).performed
                                     : remove_edge(op.u, op.v).performed;
          out.set(k, op.kind, performed);
        }
      });
}

void Hdt::collect_level_arcs(const Node* x, std::vector<Edge>& out) const {
  if (x == nullptr || !x->sub_level_arc) return;
  if (x->arc_at_level && x->tail < x->head)  // each arc pair reported once
    out.emplace_back(x->tail, x->head);
  collect_level_arcs(x->left, out);
  collect_level_arcs(x->right, out);
}

void Hdt::promote_level_arcs(int i, Node* tv_root) {
  assert(i + 1 <= lmax_);
  std::vector<Edge> to_promote;
  collect_level_arcs(tv_root, to_promote);
  Forest& fi = forest(i);
  Forest& fn = forest(i + 1);
  for (const Edge& e : to_promote) {
    fi.set_arc_at_level(e.u, e.v, false);
    fn.link(e.u, e.v);
    fn.set_arc_at_level(e.u, e.v, true);
    EdgeInfo* info = edges_.find(e);
    assert(info != nullptr && info->present && info->spanning &&
           info->level == i);
    info->level = static_cast<uint8_t>(i + 1);
  }
}

bool Hdt::search_replacement(int i, Node* x, Node* other_root, Edge* out) {
  if (x == nullptr || !x->sub_nonspanning.load(std::memory_order_seq_cst))
    return false;
  bool found = false;
  if (x->is_vertex() &&
      x->local_nonspanning.load(std::memory_order_seq_cst) > 0) {
    const Vertex a = x->tail;
    AdjSet* rec = adj_[i].find(a);
    Forest& fi = forest(i);
    while (rec != nullptr && !rec->s.empty()) {
      const Vertex w = rec->s.front();
      if (Forest::find_piece_root(fi.vertex_node(w)) == other_root) {
        *out = Edge(a, w);
        adj_erase(i, a, w);  // it becomes spanning; caller links it
        found = true;
        break;
      }
      // Not a replacement: promote to level i+1 to amortize this visit.
      assert(i + 1 <= lmax_);
      adj_erase(i, a, w);
      adj_insert(i + 1, a, w);
      EdgeInfo* info = edges_.find(Edge(a, w));
      assert(info != nullptr && info->present && !info->spanning);
      info->level = static_cast<uint8_t>(i + 1);
    }
  }
  if (!found) found = search_replacement(i, x->left, other_root, out);
  if (!found) found = search_replacement(i, x->right, other_root, out);
  Forest::recalculate_flags(x);
  return found;
}

bool Hdt::sample_scan(int i, Node* x, Node* other_root, Edge* out,
                      int& budget) {
  if (x == nullptr || budget <= 0 ||
      !x->sub_nonspanning.load(std::memory_order_seq_cst))
    return false;
  if (x->is_vertex() &&
      x->local_nonspanning.load(std::memory_order_seq_cst) > 0) {
    AdjSet* rec = adj_[i].find(x->tail);
    if (rec != nullptr) {
      Forest& fi = forest(i);
      for (Vertex w : rec->s) {
        if (budget-- <= 0) return false;
        if (Forest::find_piece_root(fi.vertex_node(w)) == other_root) {
          *out = Edge(x->tail, w);
          adj_erase(i, x->tail, w);
          return true;
        }
      }
    }
  }
  if (sample_scan(i, x->left, other_root, out, budget)) return true;
  return sample_scan(i, x->right, other_root, out, budget);
}

bool Hdt::sample_replacement(int i, Node* tv_root, Node* other_root,
                             Edge* out) {
  int budget = kSampleBudget;
  return sample_scan(i, tv_root, other_root, out, budget);
}

void Hdt::check_invariants() {
  // F_0 ⊇ F_i: every spanning edge of level l must be present in F_0..F_l,
  // absent above; non-spanning edges must be in the adjacency sets of their
  // level; component sizes in G_i bounded by n / 2^i.
  edges_.for_each([&](const Edge& e, EdgeInfo& info) {
    if (!info.present) return;
    if (info.spanning) {
      for (int i = 0; i <= info.level; ++i) {
        [[maybe_unused]] Forest* f = forest_if(i);
        assert(f != nullptr && f->has_edge(e.u, e.v));
      }
      for (int i = info.level + 1; i <= lmax_; ++i) {
        [[maybe_unused]] Forest* f = forest_if(i);
        assert(f == nullptr || !f->has_edge(e.u, e.v));
      }
    } else {
      [[maybe_unused]] AdjSet* au = adj_[info.level].find(e.u);
      [[maybe_unused]] AdjSet* av = adj_[info.level].find(e.v);
      assert(au != nullptr && au->s.contains(e.v));
      assert(av != nullptr && av->s.contains(e.u));
    }
    // Size invariant: the component of e in G_level has ≤ n/2^level vertices.
    Forest* f = forest_if(info.level);
    if (f != nullptr) {
      Node* nu = f->vertex_node_if_exists(e.u);
      if (nu != nullptr) {
        const uint32_t sz =
            Forest::subtree_vertices(Forest::find_piece_root(nu));
        assert(static_cast<uint64_t>(sz) << info.level <= n_);
        (void)sz;
      }
    }
  });
  (void)this;
}

}  // namespace condyn
