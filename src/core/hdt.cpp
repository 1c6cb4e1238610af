#include "core/hdt.hpp"

#include <cassert>

#include "core/batch_runs.hpp"
#include "core/stats.hpp"

namespace condyn {

using ett::Forest;
using ett::Node;

Hdt::Hdt(Vertex n, bool sampling, bool label_cache)
    : HdtLevels(n, label_cache),
      sampling_(sampling),
      edges_(2 * static_cast<std::size_t>(n)),  // steady-state |E| guess
      adj_(std::make_unique<ShardedU64Map<AdjSet>[]>(lmax_ + 2)) {}

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
    const auto [tv, other] = smaller_piece(ru, rv);
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
    if (i + 1 <= lmax_) {
      promote_level_arcs(i, tv, [&](const Edge& e) {
        EdgeInfo* lifted = edges_.find(e);
        assert(lifted != nullptr && lifted->present && lifted->spanning &&
               lifted->level == i);
        lifted->level = static_cast<uint8_t>(i + 1);
      });
    }
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
        out.set_op(i, ops[i].kind, exec_writer(ops[i]));
      },
      [&](std::span<const uint32_t> order) {
        for (uint32_t k : order)
          out.set_op(k, ops[k].kind, exec_writer(ops[k]));
      });
}

bool Hdt::search_replacement(int i, Node* tv_root, Node* other_root,
                             Edge* out) {
  Forest& fi = forest(i);
  return walk_flagged(tv_root, /*recalc=*/true, [&](Node* vx) {
    const Vertex a = vx->tail;
    AdjSet* rec = adj_[i].find(a);
    while (rec != nullptr && !rec->s.empty()) {
      const Vertex w = rec->s.front();
      if (Forest::find_piece_root(fi.vertex_node(w)) == other_root) {
        *out = Edge(a, w);
        adj_erase(i, a, w);  // it becomes spanning; caller links it
        return true;
      }
      // Not a replacement: promote to level i+1 to amortize this visit.
      assert(i + 1 <= lmax_);
      adj_erase(i, a, w);
      adj_insert(i + 1, a, w);
      EdgeInfo* info = edges_.find(Edge(a, w));
      assert(info != nullptr && info->present && !info->spanning);
      info->level = static_cast<uint8_t>(i + 1);
    }
    return false;
  });
}

bool Hdt::sample_replacement(int i, Node* tv_root, Node* other_root,
                             Edge* out) {
  Forest& fi = forest(i);
  int budget = kSampleBudget;
  bool found = false;
  walk_flagged(tv_root, /*recalc=*/false, [&](Node* vx) {
    const Vertex a = vx->tail;
    AdjSet* rec = adj_[i].find(a);
    if (rec == nullptr) return false;
    for (Vertex w : rec->s) {
      if (budget-- <= 0) return true;
      if (Forest::find_piece_root(fi.vertex_node(w)) == other_root) {
        *out = Edge(a, w);
        adj_erase(i, a, w);
        found = true;
        return true;
      }
    }
    return false;
  });
  return found;
}

void Hdt::check_invariants() {
  edges_.for_each([&](const Edge& e, EdgeInfo& info) {
    if (!info.present) return;
    if (info.spanning) {
      check_spanning_nesting(e, info.level);
    } else {
      const AdjSet* au = adj_[info.level].find(e.u);
      const AdjSet* av = adj_[info.level].find(e.v);
      require(au != nullptr && au->s.contains(e.v) && av != nullptr &&
                  av->s.contains(e.u),
              "non-spanning edge missing from its level's adjacency sets", e);
    }
    check_size_bound(e, info.level);
  });
}

}  // namespace condyn
