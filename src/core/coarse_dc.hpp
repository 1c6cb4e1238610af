#pragma once

#include <mutex>
#include <string>

#include "api/dynamic_connectivity.hpp"
#include "core/hdt.hpp"
#include "core/stats.hpp"

namespace condyn {

/// Coarse-grained variants (1)–(5): the HDT engine behind one global lock.
///
/// Template knobs cover the paper's combinations:
///  * Lock = SpinLock     → (1) plain coarse-grained locking;
///  * Lock = RwSpinLock   → (2) readers–writer lock (reads take shared mode);
///  * Lock = ElisionLock  → (4)/(5) HTM lock elision;
///  * NonBlockingReads    → (3)/(5): connected() bypasses the lock entirely
///    and runs the single-writer ETT's lock-free query.
template <typename Lock, bool NonBlockingReads>
class CoarseDc final : public DynamicConnectivity {
 public:
  explicit CoarseDc(Vertex n, std::string name, bool sampling = true,
                    bool label_cache = false)
      : hdt_(n, sampling, label_cache), name_(std::move(name)) {}

  bool add_edge(Vertex u, Vertex v) override {
    std::lock_guard<Lock> lk(mu_);
    return hdt_.add_edge(u, v).performed;
  }

  bool remove_edge(Vertex u, Vertex v) override {
    std::lock_guard<Lock> lk(mu_);
    return hdt_.remove_edge(u, v).performed;
  }

  bool connected(Vertex u, Vertex v) override {
    if constexpr (NonBlockingReads) {
      return hdt_.connected(u, v);
    } else {
      ++op_stats::local().reads;
      mu_.lock_shared();  // == lock() for exclusive-only locks
      const bool r = hdt_.connected_writer(u, v);
      mu_.unlock_shared();
      return r;
    }
  }

  /// Value queries follow the family's read discipline exactly: lock-free
  /// against the published F_0 augmentation when reads are non-blocking,
  /// shared (or exclusive) locked root lookup otherwise.
  uint64_t component_size(Vertex u) override {
    if constexpr (NonBlockingReads) {
      return hdt_.component_size(u);
    } else {
      ++op_stats::local().reads;
      mu_.lock_shared();
      const uint64_t r = hdt_.component_size_writer(u);
      mu_.unlock_shared();
      return r;
    }
  }

  Vertex representative(Vertex u) override {
    if constexpr (NonBlockingReads) {
      return hdt_.representative(u);
    } else {
      ++op_stats::local().reads;
      mu_.lock_shared();
      const Vertex r = hdt_.representative_writer(u);
      mu_.unlock_shared();
      return r;
    }
  }

  /// One lock acquisition for the whole batch — the amortization this
  /// variant family exists to demonstrate. Update-containing batches are
  /// atomic with respect to concurrent single ops and batches
  /// (caps.atomic_batch); with non-blocking reads, pure-read batches skip
  /// the lock and run as individual lock-free queries instead.
  BatchResult apply_batch(std::span<const Op> ops) override {
    BatchResult r;
    r.values.resize(ops.size());
    if (ops.empty()) return r;
    if (all_reads(ops)) {
      // A pure-read batch (connectivity + value queries) never needs
      // exclusivity: answer exactly like a sequence of single-op calls —
      // lock-free when the variant reads non-blocking, shared mode
      // otherwise (so coarse-rw read batches keep their reader
      // parallelism).
      if constexpr (NonBlockingReads) {
        for (std::size_t i = 0; i < ops.size(); ++i)
          r.set_op(i, ops[i].kind, hdt_.exec_query(ops[i]));
      } else {
        op_stats::local().reads += ops.size();
        mu_.lock_shared();  // == lock() for exclusive-only locks
        for (std::size_t i = 0; i < ops.size(); ++i)
          r.set_op(i, ops[i].kind, hdt_.exec_writer(ops[i]));
        mu_.unlock_shared();
      }
      return r;
    }
    std::lock_guard<Lock> lk(mu_);
    hdt_.apply_batch(ops, r);
    return r;
  }

  ComponentsSnapshot components() override { return hdt_.components(*this); }

  Vertex num_vertices() const override { return hdt_.num_vertices(); }
  std::string name() const override { return name_; }

 private:
  Hdt hdt_;
  Lock mu_;
  std::string name_;
};

}  // namespace condyn
