#pragma once

// Timing decorator over DynamicConnectivity, linked into perfbench_traced
// only. Every virtual forwards to the wrapped structure; around each call it
// reads the calling thread's op_stats, lock_stats and pool_stats counters
// and keeps the deltas, so work done on threads the benchmark does not own
// (the server's workers, the ingest applier) is attributed where it happens.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "core/stats.hpp"
#include "util/lock_stats.hpp"
#include "util/pool_stats.hpp"

namespace perfbench {

/// One apply_batch call.
struct BatchSpan {
  int64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint32_t ops = 0;
};

/// Counter deltas and time spent inside the structure.
struct CallTotals {
  condyn::op_stats::Counters ops;
  condyn::lock_stats::Counters locks;
  condyn::pool_stats::Counters mem;
  uint64_t calls = 0;
  uint64_t ops_count = 0;  ///< ops executed (1 per single-op call)
  uint64_t busy_ns = 0;    ///< wall time inside the wrapped structure

  CallTotals& operator+=(const CallTotals& o);
};

class TracedDc final : public condyn::DynamicConnectivity {
 public:
  explicit TracedDc(condyn::DynamicConnectivity& inner);
  ~TracedDc() override;
  TracedDc(const TracedDc&) = delete;
  TracedDc& operator=(const TracedDc&) = delete;

  bool add_edge(condyn::Vertex u, condyn::Vertex v) override;
  bool remove_edge(condyn::Vertex u, condyn::Vertex v) override;
  bool connected(condyn::Vertex u, condyn::Vertex v) override;
  uint64_t component_size(condyn::Vertex u) override;
  condyn::Vertex representative(condyn::Vertex u) override;
  condyn::ComponentsSnapshot components() override;
  condyn::BatchResult apply_batch(std::span<const condyn::Op> ops) override;
  condyn::Vertex num_vertices() const override;
  void quiesce() override;
  std::string name() const override;

  /// The next apply_batch caller is the ingest applier thread: its spans
  /// are reported as applier calls, every other thread's as inline calls.
  /// Call while no other thread can call apply_batch.
  void expect_applier();

  /// Totals over every thread, and the apply_batch spans split by role.
  /// Read only while no thread is inside the structure.
  struct Report {
    CallTotals totals;
    std::vector<BatchSpan> inline_batches;
    std::vector<BatchSpan> applier_batches;
  };
  Report report() const;
  /// Forget everything recorded so far (same precondition as report()).
  void reset();

 private:
  struct Slot {
    bool applier = false;  ///< this thread is the ingest applier
    CallTotals totals;
    std::vector<BatchSpan> batches;
  };
  Slot& slot();
  template <typename F>
  auto traced(uint64_t nops, F&& f);

  condyn::DynamicConnectivity& inner_;
  const uint64_t instance_;
  mutable std::mutex mu_;  ///< guards slots_ (growth only; slots are per-thread)
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<bool> expect_applier_{false};
};

}  // namespace perfbench
