#include "core/hdt_levels.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

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

HdtLevels::HdtLevels(Vertex n, bool label_cache)
    : n_(n),
      lmax_(levels_for(std::max<Vertex>(n, 2))),
      forests_(std::make_unique<std::atomic<Forest*>[]>(lmax_ + 2)) {
  for (int i = 0; i <= lmax_ + 1; ++i)
    forests_[i].store(nullptr, std::memory_order_relaxed);
  forest0_ = new Forest(n_, 0);
  forests_[0].store(forest0_, std::memory_order_release);
  if (label_cache) cache_ = std::make_unique<LabelCache>(forest0_);
}

HdtLevels::~HdtLevels() {
  cache_.reset();  // detaches from forest0_
  for (int i = 0; i <= lmax_ + 1; ++i)
    delete forests_[i].load(std::memory_order_relaxed);
}

Forest& HdtLevels::create_forest(int i) {
  auto* fresh = new Forest(n_, i);
  Forest* expected = nullptr;
  if (forests_[i].compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // lost the creation race (fine-grained writers)
  return *expected;
}

void HdtLevels::collect_level_arcs(const Node* x, std::vector<Edge>& out) {
  if (x == nullptr || !x->sub_level_arc) return;
  if (x->arc_at_level && x->tail < x->head)  // each arc pair reported once
    out.emplace_back(x->tail, x->head);
  collect_level_arcs(x->left, out);
  collect_level_arcs(x->right, out);
}

void HdtLevels::require(bool ok, const char* invariant, const Edge& e) {
  if (ok) return;
  throw std::logic_error("HDT invariant broken: " + std::string(invariant) +
                         " (edge " + std::to_string(e.u) + "-" +
                         std::to_string(e.v) + ")");
}

void HdtLevels::check_spanning_nesting(const Edge& e, int level) const {
  for (int i = 0; i <= level; ++i) {
    const Forest* f = forest_if(i);
    require(f != nullptr && f->has_edge(e.u, e.v),
            "spanning edge missing from a forest at or below its level", e);
  }
  for (int i = level + 1; i <= lmax_; ++i) {
    const Forest* f = forest_if(i);
    require(f == nullptr || !f->has_edge(e.u, e.v),
            "spanning edge present in a forest above its level", e);
  }
}

void HdtLevels::check_size_bound(const Edge& e, int level) const {
  const Forest* f = forest_if(level);
  if (f == nullptr) return;
  Node* nu = f->vertex_node_if_exists(e.u);
  if (nu == nullptr) return;
  const uint32_t sz = Forest::subtree_vertices(ett::find_root(nu));
  require(static_cast<uint64_t>(sz) << level <= n_,
          "tree of the edge's level exceeds n / 2^level vertices", e);
}

}  // namespace condyn
