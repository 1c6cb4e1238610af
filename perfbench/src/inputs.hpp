#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/graph.hpp"

namespace perfbench {

enum class WorkloadKind { kEmbedded, kServeReads, kServeWrites };

/// Parses a --workload name; false when unknown.
bool parse_workload(const std::string& name, WorkloadKind& out);
const char* workload_name(WorkloadKind k);
inline bool is_serve(WorkloadKind k) { return k != WorkloadKind::kEmbedded; }

/// Everything a run feeds the program, generated from the seed before any
/// timing starts.
struct Inputs {
  condyn::Graph graph;
  /// prefill[e] = 1 when graph edge e is present before the first timed op
  /// (a seeded half of the edges).
  std::vector<uint8_t> prefill;
  /// Closed-loop programs, one per client thread; replayed once per round.
  std::array<Stream, kClients> closed;
  /// Open-loop programs, one per connection; frame j of connection c holds
  /// ops [8j, 8j+8) modulo the stream length.
  std::array<Stream, kClients> open;
  /// Hash of the graph, the prefill, every stream and the ladder: equal
  /// digests mean two runs fed the program identical inputs.
  uint64_t digest = 0;
};

/// The stripe (client) that owns graph edge e.
inline unsigned stripe_of(uint32_t e) { return e % kClients; }

Inputs make_inputs(WorkloadKind kind, uint64_t seed,
                   const std::vector<double>& ladder_rates);

/// The graph edges present initially (prefill) as a list.
std::vector<condyn::Edge> prefill_edges(const Inputs& in);

}  // namespace perfbench
