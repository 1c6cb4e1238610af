#pragma once

#include <cassert>

#include "core/ett.hpp"
#include "util/ebr.hpp"

namespace condyn {

/// The lock-free find_root of a level-0 vertex node, as the level-0 vertex
/// node that carries the component lock. A find_root from a vertex node
/// only ever climbs to vertex nodes (see Node::as_level0), so a candidate
/// is never an arc.
inline ett::Level0Vertex* candidate_root(ett::Node* x) noexcept {
  return &ett::find_root(x)->as_level0();
}

/// Per-component fine-grained locking (paper Listing 2).
///
/// Components are represented by their level-0 Cartesian tree roots. An
/// update finds the roots with the lock-free find_root, acquires their node
/// locks in a global (address) order, then validates that the locked nodes
/// are still the roots of u's and v's components; any mismatch releases and
/// retries. While the locks are held no other writer can modify the
/// component(s) — a concurrent spanning removal keeps everything chained to
/// the locked old root until it completes, so root discovery always funnels
/// competitors onto the same lock.
class ComponentGuard {
 public:
  /// Exclusive ownership of the component(s) of u and v.
  ComponentGuard(ett::Forest& f0, Vertex u, Vertex v) {
    auto guard = ebr::pin();
    ett::Node* nu = f0.vertex_node(u);
    ett::Node* nv = f0.vertex_node(v);
    for (;;) {
      ett::Level0Vertex* ru = candidate_root(nu);
      ett::Level0Vertex* rv = candidate_root(nv);
      ett::Level0Vertex* lo = ru <= rv ? ru : rv;  // consistent lock ordering
      ett::Level0Vertex* hi = ru <= rv ? rv : ru;
      lo->lock.lock();
      if (hi != lo) hi->lock.lock();
      // Listing 2's re-check: the locked nodes must still be roots and must
      // still be the representatives of u's and v's components. Acquire
      // suffices: any writer that demoted ru/rv did so while holding this
      // very lock, so the lock handoff already orders its parent store
      // before our load (DESIGN.md §7.3).
      if (ru->parent.load(std::memory_order_acquire) == nullptr &&
          rv->parent.load(std::memory_order_acquire) == nullptr &&
          ett::find_root(nu) == ru && ett::find_root(nv) == rv) {
        a_ = lo;
        b_ = hi;
        return;
      }
      if (hi != lo) hi->lock.unlock();
      lo->lock.unlock();
    }
  }

  ~ComponentGuard() {
    if (b_ != a_) b_->lock.unlock();
    a_->lock.unlock();
  }

  ComponentGuard(const ComponentGuard&) = delete;
  ComponentGuard& operator=(const ComponentGuard&) = delete;

  /// Both locked roots (equal when u and v share a component).
  ett::Node* first() const noexcept { return a_; }
  ett::Node* second() const noexcept { return b_; }
  bool same_component() const noexcept { return a_ == b_; }

 private:
  ett::Level0Vertex* a_ = nullptr;
  ett::Level0Vertex* b_ = nullptr;
};

/// Shared (read) ownership used by variant (7): take both root locks in
/// shared mode, validate, answer. Retries like the exclusive guard.
class SharedComponentGuard {
 public:
  SharedComponentGuard(ett::Forest& f0, Vertex u, Vertex v) {
    auto guard = ebr::pin();
    ett::Node* nu = f0.vertex_node(u);
    ett::Node* nv = f0.vertex_node(v);
    for (;;) {
      ett::Level0Vertex* ru = candidate_root(nu);
      ett::Level0Vertex* rv = candidate_root(nv);
      ett::Level0Vertex* lo = ru <= rv ? ru : rv;
      ett::Level0Vertex* hi = ru <= rv ? rv : ru;
      lo->lock.lock_shared();
      if (hi != lo) hi->lock.lock_shared();
      if (ru->parent.load(std::memory_order_acquire) == nullptr &&
          rv->parent.load(std::memory_order_acquire) == nullptr &&
          ett::find_root(nu) == ru && ett::find_root(nv) == rv) {
        a_ = lo;
        b_ = hi;
        connected_ = (ru == rv);
        return;
      }
      if (hi != lo) hi->lock.unlock_shared();
      lo->lock.unlock_shared();
    }
  }

  ~SharedComponentGuard() {
    if (b_ != a_) b_->lock.unlock_shared();
    a_->lock.unlock_shared();
  }

  SharedComponentGuard(const SharedComponentGuard&) = delete;
  SharedComponentGuard& operator=(const SharedComponentGuard&) = delete;

  bool connected() const noexcept { return connected_; }

  /// Both locked roots (equal when u and v share a component). With u == v
  /// this is *the* certified root of u's component — the value queries read
  /// its vcount/vmin augmentation under the shared lock.
  ett::Node* first() const noexcept { return a_; }
  ett::Node* second() const noexcept { return b_; }

 private:
  ett::Level0Vertex* a_ = nullptr;
  ett::Level0Vertex* b_ = nullptr;
  bool connected_ = false;
};

}  // namespace condyn
