#pragma once

#include <string>

#include "api/dynamic_connectivity.hpp"
#include "combining/combining_core.hpp"
#include "core/hdt.hpp"

namespace condyn {

/// Variant (13): flat combining for updates + the paper's non-blocking reads.
///
/// Updates are published to per-thread slots; the thread that wins the
/// combiner lock applies every pending update sequentially on the HDT engine
/// (single writer — exactly the regime the single-writer ETT requires), which
/// trades parallelism for synchronization-free batching and cache locality.
/// connected() never enters the combiner: it runs Listing 1's lock-free
/// query. The paper finds this the best algorithm in update-heavy
/// single-component scenarios (§5.3 "Flat combining").
class FlatCombiningDc final : public DynamicConnectivity {
 public:
  explicit FlatCombiningDc(Vertex n, std::string name = "fc-nbreads",
                           bool sampling = true);

  bool add_edge(Vertex u, Vertex v) override {
    return submit(Op::add(u, v)) != 0;
  }
  bool remove_edge(Vertex u, Vertex v) override {
    return submit(Op::remove(u, v)) != 0;
  }
  bool connected(Vertex u, Vertex v) override { return hdt_.connected(u, v); }

  /// Value queries never enter the combiner either: like connected(), they
  /// run Listing 1's lock-free protocol (versioned double-collect over the
  /// root's vcount/vmin augmentation) against the combiner-owned engine.
  uint64_t component_size(Vertex u) override {
    return hdt_.component_size(u);
  }
  Vertex representative(Vertex u) override { return hdt_.representative(u); }

  /// Batched path: the whole batch is published through this thread's slot
  /// (one publication + one wait per batch instead of per op) and applied
  /// atomically by whichever thread combines. Pure-read batches bypass the
  /// combiner entirely on the lock-free read path.
  BatchResult apply_batch(std::span<const Op> ops) override;

  Vertex num_vertices() const override { return hdt_.num_vertices(); }
  std::string name() const override { return name_; }

 private:
  uint64_t submit(const Op& op);
  void submit_and_wait(combining::Slot& s);
  void combine();

  Hdt hdt_;
  std::string name_;
  combining::SlotArray slots_;
  SpinLock combiner_lock_;
};

}  // namespace condyn
