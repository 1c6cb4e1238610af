#pragma once

#include <span>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// Result of the closed-loop phase: kClients threads, each replaying its
/// pre-generated program through the single-op API in rounds of fixed work.
struct ClosedLoopResult {
  /// Ops/s of every round (the sum over threads of the thread's ops ÷ its
  /// own wall time in the round), split by the target the round ran on
  /// (index into the `targets` span passed to run_closed_loop).
  std::vector<std::vector<double>> round_ops_s;
  std::vector<uint32_t> query_ns;   ///< sampled per-op latency, queries
  /// Sampled per-op latency of updates that changed the edge set. An add of
  /// a present edge (or a remove of an absent one) returns on a fast path;
  /// mixing those in would put the median between two modes.
  std::vector<uint32_t> update_ns;
  uint64_t ops = 0;
  /// CPU time of the client threads inside their timed rounds, per target.
  std::vector<double> cpu_s;
  /// Ops of the timed rounds, per target.
  std::vector<uint64_t> target_ops;
  /// Updates whose return value disagreed with the stripe replay (an add of
  /// an absent edge must return true, and so on).
  uint64_t update_mismatches = 0;
};

/// Runs rounds until `seconds` have passed (at least three). Round r goes
/// to targets[r % targets.size()], so a traced run can interleave the bare
/// and the decorated structure. `presence` holds the expected edge presence
/// at phase start and is advanced to the final state.
ClosedLoopResult run_closed_loop(std::span<DynamicConnectivity* const> targets,
                                 const Inputs& in,
                                 std::vector<uint8_t>& presence,
                                 double seconds);

}  // namespace perfbench
