#pragma once

// Per-layer metrics of a traced run (perfbench_traced only). Each is read
// at a layer boundary from the benchmark's own files: the decorator's
// counter deltas and apply_batch spans, IngestService::stats() and its
// sojourn samples, the fsync interposer, ServerStats, and the client's own
// frame spans. README.md maps every metric to the end-to-end metric it
// should move.

#include <cstdint>
#include <vector>

#include "ingest/ingest.hpp"
#include "ladder.hpp"
#include "metrics.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "traced_dc.hpp"

namespace perfbench {

struct LayerInputs {
  bool serve = false;
  /// Decorator report over the ladder (every layer's calls into `full`).
  TracedDc::Report ladder;
  /// Decorator report over the decorated closed-loop rounds.
  TracedDc::Report closed;
  std::vector<StepResult> steps;
  std::vector<trace::FsyncSpan> fsyncs;
  std::vector<uint32_t> sojourn_ns;
  condyn::ingest::IngestStats ingest_before, ingest_after;
  condyn::server::ServerStats server;
  double journal_bytes = 0;  ///< bytes the journal grew by during the ladder
  uint64_t queue_depth_max = 0;
  double recover_ms = 0;
  double resident_mb = 0;
  double overhead_share = 0;
  double probe_ms = 0;
};

void add_layer_metrics(MetricSet& m, const LayerInputs& in);

}  // namespace perfbench
