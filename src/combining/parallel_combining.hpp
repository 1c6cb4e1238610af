#pragma once

#include <string>

#include "api/dynamic_connectivity.hpp"
#include "combining/combining_core.hpp"
#include "core/hdt.hpp"

namespace condyn {

/// Variant (12): parallel combining (Aksenov, Kuznetsov, Shalyto — OPODIS'18)
/// applied to dynamic connectivity, the paper's strongest prior baseline.
///
/// Like flat combining, updates are applied sequentially by the combiner.
/// Unlike flat combining, published *read* operations are executed by their
/// owning threads in a parallel phase: the combiner flips every pending read
/// slot to GO, the owners run their own connected() on the then-quiescent
/// structure concurrently, and only after all reads drain does the combiner
/// apply the batched updates. This is the "readers-writer lock"-like batching
/// the paper describes in §1.
class ParallelCombiningDc final : public DynamicConnectivity {
 public:
  explicit ParallelCombiningDc(Vertex n,
                               std::string name = "parallel-combining",
                               bool sampling = true);

  bool add_edge(Vertex u, Vertex v) override {
    return submit(Op::add(u, v)) != 0;
  }
  bool remove_edge(Vertex u, Vertex v) override {
    return submit(Op::remove(u, v)) != 0;
  }
  bool connected(Vertex u, Vertex v) override {
    return submit(Op::connected(u, v)) != 0;
  }

  /// Value queries publish through the same slot protocol as connected():
  /// the combiner releases them into the parallel read phase (they are
  /// reads), where their owners execute the root lookup on the quiescent
  /// structure.
  uint64_t component_size(Vertex u) override {
    return submit(Op::component_size(u));
  }
  Vertex representative(Vertex u) override {
    return static_cast<Vertex>(submit(Op::representative(u)));
  }

  /// Batched path: the whole (possibly mixed) batch is published through
  /// this thread's slot — one publication per batch instead of one per op.
  /// Update-containing batches are applied by the combiner in the
  /// sequential update phase, after the parallel read phase has drained;
  /// query-only batches are released into that read phase and executed by
  /// their owner on the quiescent structure, keeping this variant's
  /// parallel-read advantage for read batches.
  BatchResult apply_batch(std::span<const Op> ops) override;

  Vertex num_vertices() const override { return hdt_.num_vertices(); }
  std::string name() const override { return name_; }

 private:
  uint64_t submit(const Op& op);
  void submit_and_wait(combining::Slot& s);
  void run_reads(combining::Slot& s);
  void combine();

  Hdt hdt_;
  std::string name_;
  combining::SlotArray slots_;
  SpinLock combiner_lock_;
};

}  // namespace condyn
