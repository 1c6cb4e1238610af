#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "core/stats.hpp"
#include "graph/graph.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "util/lock_stats.hpp"

namespace condyn::harness {

// RunConfig lives in workload.hpp (it parameterizes the stream factories);
// defaults come from the environment so every bench binary scales from
// laptop-quick to paper-size without recompilation (see env_config() and
// DESIGN.md §3):
//   DC_BENCH_MILLIS    measurement window per data point      (default 300)
//   DC_BENCH_WARMUP    warmup window per data point           (default 100)
//   DC_BENCH_THREADS   comma list of thread counts            (default
//                      "1,2,4,8" capped at 2*hardware_concurrency)
//   DC_BENCH_SCALE     graph size multiplier                  (default 0.05)
//   DC_BENCH_SEED      base RNG seed                          (default 42)
//   DC_BENCH_FULL      1 = paper-size graphs, all variants    (default 0)
//   DC_BENCH_BATCH_SIZES  comma list of batch sizes           (default
//                      "1,16,64,256"; batch scenarios only; one run sweeps
//                      every listed size)
//   DC_BENCH_SCENARIOS comma list of scenario names/ids       (default: all
//                      runnable — trace-replay needs DC_BENCH_TRACE)
//   DC_BENCH_READS     comma list of read percentages         (default
//                      "80,99"; read-mix scenarios only)
//   DC_BENCH_TRACE     recorded trace path (trace-replay scenario)
//   DC_BENCH_ZIPF_THETA   Zipf skew of the zipfian scenario   (default 0.99)
//   DC_BENCH_WINDOW       sliding-window live fraction of the stripe
//                         (default 0.25)
//   DC_BENCH_COMMUNITIES  community count, component-local    (default 16)
//   DC_BENCH_RUNLEN       ops per community before hopping    (default 64)
//   DC_BENCH_SHARD_SKEW   work-imbalance hot-shard probability (default 0.8;
//                         hot bucket defined by DC_SHARDS, DESIGN.md §10)
//   DC_BENCH_RATE         open-loop target arrival rate, ops/sec aggregate
//                         (default 0 = unpaced; paced scenarios only —
//                         firehose and the bench `ingest` section)

/// Validate a RunConfig before a driver runs it: rejects threads == 0,
/// measure_ms <= 0 and warmup_ms < 0 with std::invalid_argument; returns a
/// copy with read_percent clamped to [0, 100] and batch_size clamped to >= 1.
RunConfig validated(const RunConfig& cfg);

/// Caps-aware validation, called by run_scenario: everything above, plus
/// knob/scenario compatibility. arrival_rate > 0 on a batched closed-loop
/// scenario is rejected (pacing the batch filler measures neither the
/// closed-loop nor the open-loop regime); on a non-paced scenario it is
/// cleared to 0 (the stream has no pacing hook to honor it).
RunConfig validated(const RunConfig& cfg, const ScenarioCaps& caps);

/// Aggregated measurements of one run.
struct RunResult {
  double ops_per_ms = 0;         ///< total completed operations per ms
  double active_time_percent = 100;  ///< 100 * (1 - lock-wait share)
  uint64_t total_ops = 0;
  double elapsed_ms = 0;
  /// Completed operations by OpKind (indexed by static_cast<size_t>(kind)):
  /// the per-kind view behind bench_suite's per-kind throughput columns —
  /// a size-query mix reports how many of its ops were component_size /
  /// representative probes, not just a total.
  uint64_t ops_by_kind[kNumOpKinds] = {};
  /// Per-kind throughput (completed ops of `kind` per millisecond).
  double kind_per_ms(OpKind kind) const noexcept {
    return elapsed_ms > 0
               ? ops_by_kind[static_cast<std::size_t>(kind)] / elapsed_ms
               : 0;
  }
  op_stats::Counters op_counters;       ///< summed over worker threads
  lock_stats::Counters lock_counters;   ///< summed over worker threads
  pool_stats::Counters mem_counters;    ///< summed over worker threads
  // Batched scenarios only: per-apply_batch latency over all workers.
  uint64_t batches = 0;
  double batch_latency_us_avg = 0;
  double batch_latency_us_max = 0;
  // Scenarios whose caps set tracks_latency (trace-replay-dep): every
  // measured op is individually timed and the distribution over all
  // workers is summarized here — the closed-loop latency view throughput
  // numbers hide. latency_samples == 0 means the scenario doesn't track.
  uint64_t latency_samples = 0;
  double latency_us_avg = 0;
  double latency_us_p50 = 0;
  double latency_us_p90 = 0;
  double latency_us_p99 = 0;
  double latency_us_max = 0;
};

/// Run one registered scenario (harness/scenario.hpp): applies the prefill
/// its caps request, spawns cfg.threads workers each pulling from the
/// scenario's stream factory, and measures either a timed window (infinite
/// streams; warmup then measure) or time-to-completion (finite streams).
/// Scenarios with caps.batched submit chunks of cfg.batch_size through
/// apply_batch and report per-batch latency in RunResult. The structure is
/// left in whatever state the run ends in — use a fresh instance per run.
RunResult run_scenario(const ScenarioInfo& s, DynamicConnectivity& dc,
                       const Graph& g, const RunConfig& cfg);

/// Benchmark-wide knobs resolved from the environment (see above).
struct EnvConfig {
  std::vector<unsigned> thread_counts;
  int warmup_ms;
  int measure_ms;
  double scale;
  uint64_t seed;
  bool full;
  /// Variant ids to run, resolved from DC_BENCH_VARIANTS (comma list of ids
  /// or names); empty = caller's default set.
  std::vector<int> variants;
  /// Scenario names to run, resolved from DC_BENCH_SCENARIOS (comma list of
  /// ids or names); empty = caller's default set.
  std::vector<std::string> scenarios;
  /// Batch sizes to sweep, from DC_BENCH_BATCH_SIZES (batch scenarios
  /// only).
  std::vector<std::size_t> batch_sizes;
  /// Read percentages to sweep, from DC_BENCH_READS (read-mix scenarios).
  std::vector<int> read_percents;
  /// Recorded trace path from DC_BENCH_TRACE (trace-replay scenario).
  std::string trace_path;
  /// Generator knobs (see RunConfig for semantics and defaults).
  double zipf_theta;
  double window_fraction;
  unsigned communities;
  unsigned run_length;
  double shard_skew;
  /// Open-loop arrival rate from DC_BENCH_RATE (ops/sec aggregate; 0 =
  /// unpaced). Only handed to paced scenarios / the ingest bench section.
  double arrival_rate;
};

EnvConfig env_config();

/// Comma-separated env list, entries trimmed, empties dropped; `fallback`
/// is parsed the same way when the variable is unset or empty. The one
/// tokenizer behind every DC_BENCH_* list knob.
std::vector<std::string> env_list(const char* name,
                                  const std::string& fallback = "");

}  // namespace condyn::harness
