#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "harness/workload.hpp"

namespace condyn::harness {

/// What the driver does before the workers start pulling from the streams.
enum class Prefill {
  kNone,  ///< structure starts empty
  kHalf,  ///< random half of the graph pre-inserted (§5.1 steady state)
  kFull,  ///< every edge pre-inserted (decremental start state)
};

/// Capability flags of a scenario (DESIGN.md §6.1), mirroring VariantCaps:
/// the driver, bench_suite and tests branch on these instead of hard-coding
/// scenario names.
struct ScenarioCaps {
  /// Streams exhaust; the run measures time-to-completion (no warmup).
  /// Unset: streams are infinite and the run is a timed window.
  bool finite = false;
  /// The read/add/remove mix obeys RunConfig::read_percent.
  bool uses_read_percent = false;
  /// The driver submits operations through apply_batch in chunks of
  /// RunConfig::batch_size instead of one call per op.
  bool batched = false;
  /// Requires RunConfig::trace_path to point at a recorded trace.
  bool needs_trace = false;
  /// The driver times every individual operation and RunResult carries
  /// latency percentiles (the closed-loop measurement of trace-replay-dep).
  bool tracks_latency = false;
  Prefill prefill = Prefill::kNone;
};

/// Factory for one worker thread's operation stream. Called once per worker
/// before the start barrier (construction cost is excluded from timing);
/// `thread` is the worker index in [0, cfg.threads).
using StreamFactory = std::unique_ptr<OpStream> (*)(const Graph& g,
                                                    const RunConfig& cfg,
                                                    unsigned thread);

/// One built-in workload scenario: name -> description -> generator
/// factory -> capabilities.
struct ScenarioInfo {
  int id;            ///< 1..N, table order
  const char* name;  ///< stable identifier used in tables and DC_BENCH_SCENARIOS
  const char* description;
  ScenarioCaps caps;
  StreamFactory make_stream;
};

/// The 12 built-in scenarios, one constant table in id order (scenario.cpp).
std::span<const ScenarioInfo> all_scenarios();
/// Lookup by name or id; nullptr when no scenario matches.
const ScenarioInfo* find_scenario(const std::string& name);
const ScenarioInfo* find_scenario(int id);

/// The prefill a scenario's caps request, materialized as explicit add ops
/// (deterministic in `seed` for Prefill::kHalf). Shared by the driver (which
/// applies it before the workers start) and record_trace (which freezes it
/// into the trace so replays are self-contained).
std::vector<Op> prefill_ops(Prefill p, const Graph& g, uint64_t seed);

/// Freeze a scenario into a trace: the prefill ops followed by the
/// single-threaded op stream (at most `max_ops` stream draws; finite
/// streams may end sooner). The result replays identically on every variant
/// through replay_trace / the trace-replay scenario.
io::Trace record_trace(const ScenarioInfo& s, const Graph& g,
                       const RunConfig& cfg, std::size_t max_ops);
void record_trace_file(const ScenarioInfo& s, const Graph& g,
                       const RunConfig& cfg, std::size_t max_ops,
                       const std::string& path);

/// Sequentially apply a recorded op stream, returning each op's raw value
/// (0/1 for the boolean kinds, size / representative for the value kinds;
/// indexed like `ops`). Deterministic: two correct variants must produce
/// identical vectors for the same trace — the representative is canonical
/// (smallest member id), so even value queries compare across variants.
std::vector<uint64_t> replay_trace(DynamicConnectivity& dc,
                                   std::span<const Op> ops);

}  // namespace condyn::harness
