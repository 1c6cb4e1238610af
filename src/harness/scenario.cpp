#include "harness/scenario.hpp"

#include <stdexcept>

namespace condyn::harness {

namespace {

/// Per-thread seed derivation shared by every random-mix scenario; the
/// 0x9e37 constant predates the scenario table (run_random used it), kept so
/// recorded traces and measurements stay reproducible across versions.
uint64_t thread_seed(const RunConfig& cfg, unsigned thread) {
  return mix64(cfg.seed ^ (0x9e37ull + thread));
}

std::vector<Op> edges_as_ops(std::vector<Edge> edges, OpKind kind) {
  std::vector<Op> ops;
  ops.reserve(edges.size());
  for (const Edge& e : edges) ops.push_back({kind, e.u, e.v});
  return ops;
}

/// The trace both replay scenarios pull from: run_scenario pre-loads it into
/// cfg.preloaded_trace so N workers don't re-read the file N times; direct
/// factory callers (record_trace, tests) fall back to loading it here.
std::shared_ptr<const io::Trace> resolve_trace(const RunConfig& cfg) {
  if (cfg.preloaded_trace != nullptr) return cfg.preloaded_trace;
  if (cfg.trace_path.empty()) {
    throw std::invalid_argument(
        "trace replay needs RunConfig::trace_path (DC_BENCH_TRACE)");
  }
  return std::make_shared<const io::Trace>(io::load_trace_file(cfg.trace_path));
}

// --- Stream factories (StreamFactory), shared by the table rows below ----

std::unique_ptr<OpStream> random_mix(const Graph& g, const RunConfig& cfg,
                                     unsigned t) {
  return std::make_unique<RandomOpStream>(g, cfg.read_percent,
                                          thread_seed(cfg, t));
}

std::unique_ptr<OpStream> striped_adds(const Graph& g, const RunConfig& cfg,
                                       unsigned t) {
  return std::make_unique<VectorOpStream>(
      edges_as_ops(stripe(g.edges(), t, cfg.threads), OpKind::kAdd));
}

std::unique_ptr<OpStream> striped_removes(const Graph& g,
                                          const RunConfig& cfg, unsigned t) {
  return std::make_unique<VectorOpStream>(
      edges_as_ops(stripe(g.edges(), t, cfg.threads), OpKind::kRemove));
}

std::unique_ptr<OpStream> zipfian_mix(const Graph& g, const RunConfig& cfg,
                                      unsigned t) {
  return std::make_unique<ZipfianOpStream>(g, cfg.read_percent, cfg.seed, t);
}

std::unique_ptr<OpStream> sliding_window(const Graph& g, const RunConfig& cfg,
                                         unsigned t) {
  return std::make_unique<SlidingWindowStream>(
      stripe(g.edges(), t, cfg.threads), cfg.read_percent,
      thread_seed(cfg, t));
}

std::unique_ptr<OpStream> component_local(const Graph& g,
                                          const RunConfig& cfg, unsigned t) {
  return std::make_unique<ComponentLocalStream>(g, cfg.read_percent, cfg.seed,
                                                t);
}

std::unique_ptr<OpStream> trace_striped(const Graph&, const RunConfig& cfg,
                                        unsigned t) {
  const auto trace = resolve_trace(cfg);
  std::vector<Op> mine;
  mine.reserve(trace->ops.size() / cfg.threads + 1);
  for (std::size_t i = t; i < trace->ops.size(); i += cfg.threads)
    mine.push_back(trace->ops[i]);
  return std::make_unique<VectorOpStream>(std::move(mine));
}

std::unique_ptr<OpStream> trace_by_edge(const Graph&, const RunConfig& cfg,
                                        unsigned t) {
  return std::make_unique<VectorOpStream>(
      edge_partition(resolve_trace(cfg)->ops, t, cfg.threads));
}

std::unique_ptr<OpStream> size_queries(const Graph& g, const RunConfig& cfg,
                                       unsigned t) {
  return std::make_unique<SizeQueryStream>(g, cfg.read_percent,
                                           thread_seed(cfg, t));
}

std::unique_ptr<OpStream> connected_pairs(const Graph& g,
                                          const RunConfig& cfg, unsigned t) {
  // 100% reads: every batch is query-only regardless of cfg.read_percent.
  return std::make_unique<RandomOpStream>(g, 100, thread_seed(cfg, t));
}

/// The random-mix family: reads obey read_percent, half the graph prefilled.
constexpr ScenarioCaps kSteadyMix{.uses_read_percent = true,
                                  .prefill = Prefill::kHalf};

const ScenarioInfo kScenarios[] = {
    {1, "random",
     "uniform random mix over the edge list; half the graph pre-inserted "
     "(paper §5.1)",
     kSteadyMix, random_mix},
    {2, "incremental",
     "threads insert the whole graph, striped, into an empty structure",
     {.finite = true}, striped_adds},
    {3, "decremental",
     "threads erase every edge, striped, from a full structure "
     "(replacement-search heavy)",
     {.finite = true, .prefill = Prefill::kFull}, striped_removes},
    {4, "batch-random",
     "the random mix submitted as apply_batch calls of batch_size ops",
     {.uses_read_percent = true, .batched = true, .prefill = Prefill::kHalf},
     random_mix},
    {5, "batch-incremental",
     "the incremental insertion submitted as apply_batch calls",
     {.finite = true, .batched = true}, striped_adds},
    {6, "zipfian",
     "Zipf(0.99)-skewed edge popularity: a hot set of edges absorbs most "
     "operations (contention regime)",
     kSteadyMix, zipfian_mix},
    {7, "sliding-window",
     "temporal churn: adds march a window through each thread's stripe, "
     "removes expire the trailing edge, reads stay inside the window",
     {.uses_read_percent = true}, sliding_window},
    {8, "component-local",
     "operations clustered inside vertex communities with sticky runs "
     "(exercises fine/full per-component locality)",
     kSteadyMix, component_local},
    {9, "trace-replay",
     "replay a recorded trace file (RunConfig::trace_path / "
     "DC_BENCH_TRACE), striped across threads",
     {.finite = true, .needs_trace = true}, trace_striped},
    {10, "trace-replay-dep",
     "replay a recorded trace hash-partitioned by edge: all ops on one "
     "edge stay ordered on one thread (dependency-preserving, closed-loop "
     "per-op latency)",
     {.finite = true, .needs_trace = true, .tracks_latency = true},
     trace_by_edge},
    {11, "size-query",
     "read-heavy value-query mix: reads rotate connected / component_size "
     "/ representative over a churning edge set (Query API v2)",
     kSteadyMix, size_queries},
    {12, "bulk-connected",
     "pure connectivity-pair queries submitted as apply_batch calls "
     "(\"answer these 10k pairs at once\"); read-only batches hit the "
     "variants' pure-read exemption",
     {.batched = true, .prefill = Prefill::kHalf}, connected_pairs},
};

}  // namespace

std::span<const ScenarioInfo> all_scenarios() { return kScenarios; }

const ScenarioInfo* find_scenario(const std::string& name) {
  for (const ScenarioInfo& s : kScenarios) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

const ScenarioInfo* find_scenario(int id) {
  if (id < 1 || id > static_cast<int>(std::size(kScenarios))) return nullptr;
  return &kScenarios[id - 1];
}

std::vector<Op> prefill_ops(Prefill p, const Graph& g, uint64_t seed) {
  switch (p) {
    case Prefill::kNone:
      return {};
    case Prefill::kHalf:
      return edges_as_ops(random_half(g, seed), OpKind::kAdd);
    case Prefill::kFull:
      return edges_as_ops(g.edges(), OpKind::kAdd);
  }
  return {};
}

io::Trace record_trace(const ScenarioInfo& s, const Graph& g,
                       const RunConfig& cfg, std::size_t max_ops) {
  RunConfig one = cfg;
  one.threads = 1;  // the trace is one linear program
  io::Trace t;
  t.num_vertices = g.num_vertices();
  t.ops = prefill_ops(s.caps.prefill, g, one.seed);
  t.ops.reserve(t.ops.size() + max_ops);  // one allocation, not log2 regrows
  const std::unique_ptr<OpStream> stream = s.make_stream(g, one, 0);
  Op op;
  for (std::size_t i = 0; i < max_ops && stream->next(op); ++i)
    t.ops.push_back(op);
  return t;
}

void record_trace_file(const ScenarioInfo& s, const Graph& g,
                       const RunConfig& cfg, std::size_t max_ops,
                       const std::string& path) {
  io::save_trace_file(record_trace(s, g, cfg, max_ops), path);
}

std::vector<uint64_t> replay_trace(DynamicConnectivity& dc,
                                   std::span<const Op> ops) {
  std::vector<uint64_t> results;
  results.reserve(ops.size());
  for (const Op& op : ops) results.push_back(exec_single(dc, op));
  return results;
}

}  // namespace condyn::harness
