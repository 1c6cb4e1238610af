#pragma once

#include <string>

#include "api/dynamic_connectivity.hpp"
#include "core/batch_runs.hpp"
#include "core/component_lock.hpp"
#include "core/hdt.hpp"
#include "core/stats.hpp"

namespace condyn {

/// Read-path selection for the fine-grained variants.
enum class FineReadMode {
  kLocked,       ///< (6) exclusive root locks for queries too
  kSharedLocks,  ///< (7) readers–writer root locks, queries take shared mode
  kNonBlocking,  ///< (8) lock-free linearizable reads (Listing 1)
};

/// Fine-grained per-component locking variants (6)(7)(8), paper §4.3.
///
/// Updates acquire the level-0 root locks of the involved component(s) via
/// Listing 2 (ComponentGuard) and then run the shared HDT engine; updates of
/// disjoint components therefore proceed fully in parallel. The successful
/// acquisition itself certifies the component memberships, so the locked
/// read answer is simply "same locked root".
template <FineReadMode Mode>
class FineDc final : public DynamicConnectivity {
 public:
  explicit FineDc(Vertex n, std::string name, bool sampling = true,
                  bool label_cache = false)
      : hdt_(n, sampling, label_cache), name_(std::move(name)) {}

  bool add_edge(Vertex u, Vertex v) override {
    if (u == v) return false;
    ComponentGuard g(hdt_.level0(), u, v);
    return hdt_.add_edge(u, v).performed;
  }

  bool remove_edge(Vertex u, Vertex v) override {
    if (u == v) return false;
    ComponentGuard g(hdt_.level0(), u, v);
    return hdt_.remove_edge(u, v).performed;
  }

  bool connected(Vertex u, Vertex v) override {
    if constexpr (Mode == FineReadMode::kNonBlocking) {
      return hdt_.connected(u, v);
    } else if constexpr (Mode == FineReadMode::kSharedLocks) {
      ++op_stats::local().reads;
      SharedComponentGuard g(hdt_.level0(), u, v);
      return g.connected();
    } else {
      ++op_stats::local().reads;
      ComponentGuard g(hdt_.level0(), u, v);
      return g.same_component();
    }
  }

  /// Value queries: the guard acquisition itself certifies the locked node
  /// is u's component root, so the answer is that root's vcount / vmin
  /// augmentation — read under the same (shared/exclusive/none) lock
  /// discipline as connected().
  uint64_t component_size(Vertex u) override {
    if constexpr (Mode == FineReadMode::kNonBlocking) {
      return hdt_.component_size(u);
    } else {
      ++op_stats::local().reads;
      return ett::Node::vstat_count(locked_root_vstat(u));
    }
  }

  Vertex representative(Vertex u) override {
    if constexpr (Mode == FineReadMode::kNonBlocking) {
      return hdt_.representative(u);
    } else {
      ++op_stats::local().reads;
      return ett::Node::vstat_min(locked_root_vstat(u));
    }
  }

  /// Batched path. A single lock acquisition for the whole batch is not
  /// possible here: component locks live on level-0 roots, and a spanning
  /// update replaces those roots (a cut commits fresh piece roots), so a
  /// lock set taken up front stops excluding competitors mid-batch. Instead
  /// the batch stably groups update runs by edge (queries are reorder
  /// barriers; updates on distinct edges commute) and holds one
  /// ComponentGuard across consecutive same-edge ops for as long as no op
  /// touched the spanning forest — exactly the window in which the locked
  /// roots are still the components' representatives.
  BatchResult apply_batch(std::span<const Op> ops) override {
    BatchResult r;
    r.values.resize(ops.size());
    for_each_batch_run(
        ops,
        [&](std::size_t i) {
          // Queries take their own guards, so they run exactly like the
          // single-op methods (including the value-returning kinds).
          r.set_op(i, ops[i].kind, exec_single(*this, ops[i]));
        },
        [&](std::span<const uint32_t> order) {
          for (std::size_t p = 0; p < order.size();) {
            const Op& first = ops[order[p]];
            if (first.u == first.v) {
              r.set_op(order[p], first.kind, 0);
              ++p;
              continue;
            }
            const Edge e(first.u, first.v);
            ComponentGuard g(hdt_.level0(), e.u, e.v);
            bool guard_valid = true;
            while (p < order.size() && guard_valid) {
              const Op& op = ops[order[p]];
              if (Edge(op.u, op.v) != e) break;
              const Hdt::UpdateOutcome o = op.kind == OpKind::kAdd
                                               ? hdt_.add_edge(op.u, op.v)
                                               : hdt_.remove_edge(op.u, op.v);
              r.set_op(order[p], op.kind, o.performed ? 1 : 0);
              ++p;
              guard_valid = !o.spanning;
            }
          }
        });
    return r;
  }

  ComponentsSnapshot components() override { return hdt_.components(*this); }

  Vertex num_vertices() const override { return hdt_.num_vertices(); }
  std::string name() const override { return name_; }

 private:
  /// The certified root's packed (vcount, vmin) word, read under this
  /// mode's lock discipline (shared for (7), exclusive for (6)). The guard
  /// acquisition certifies g.first() is u's component root.
  uint64_t locked_root_vstat(Vertex u) {
    if constexpr (Mode == FineReadMode::kSharedLocks) {
      SharedComponentGuard g(hdt_.level0(), u, u);
      return g.first()->vstat.load(std::memory_order_relaxed);
    } else {
      ComponentGuard g(hdt_.level0(), u, u);
      return g.first()->vstat.load(std::memory_order_relaxed);
    }
  }

  Hdt hdt_;
  std::string name_;
};

}  // namespace condyn
