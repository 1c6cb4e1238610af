#include "harness/scenario.hpp"

#include <mutex>
#include <stdexcept>

namespace condyn::harness {

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry reg;
  static std::once_flag once;
  std::call_once(once, [] {
    // Headroom beyond the built-ins so ScenarioInfo pointers handed out by
    // find()/scenarios() are not invalidated by later add() reallocations.
    reg.scenarios_.reserve(kReserved);
    register_builtin_scenarios(reg);
  });
  return reg;
}

int ScenarioRegistry::add(const char* name, const char* description,
                          ScenarioCaps caps, StreamFactory make_stream) {
  if (scenarios_.size() >= kReserved) {
    throw std::invalid_argument(
        "scenario registry full (ScenarioRegistry::kReserved)");
  }
  for (const ScenarioInfo& s : scenarios_) {
    if (std::string(name) == s.name) {
      throw std::invalid_argument("duplicate scenario name \"" +
                                  std::string(name) + "\"");
    }
  }
  const int id = static_cast<int>(scenarios_.size()) + 1;
  scenarios_.push_back({id, name, description, caps, std::move(make_stream)});
  return id;
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name)
    const noexcept {
  for (const ScenarioInfo& s : scenarios_) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

const ScenarioInfo* ScenarioRegistry::find(int id) const noexcept {
  if (id < 1 || id > static_cast<int>(scenarios_.size())) return nullptr;
  return &scenarios_[id - 1];
}

const std::vector<ScenarioInfo>& all_scenarios() {
  return ScenarioRegistry::instance().scenarios();
}

const ScenarioInfo* find_scenario(const std::string& name) {
  return ScenarioRegistry::instance().find(name);
}

const ScenarioInfo* find_scenario(int id) {
  return ScenarioRegistry::instance().find(id);
}

namespace {

/// Per-thread seed derivation shared by every random-mix scenario; the
/// 0x9e37 constant predates the registry (run_random used it), kept so
/// recorded traces and measurements stay reproducible across PRs.
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
std::shared_ptr<const io::Trace> resolve_trace(const RunConfig& cfg,
                                               const char* scenario) {
  if (cfg.preloaded_trace != nullptr) return cfg.preloaded_trace;
  if (cfg.trace_path.empty()) {
    throw std::invalid_argument(std::string(scenario) +
                                " scenario needs RunConfig::trace_path "
                                "(DC_BENCH_TRACE)");
  }
  return std::make_shared<const io::Trace>(io::load_trace_file(cfg.trace_path));
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& r) {
  ScenarioCaps random_caps;
  random_caps.uses_read_percent = true;
  random_caps.prefill = Prefill::kHalf;
  r.add("random",
        "uniform random mix over the edge list; half the graph pre-inserted "
        "(paper §5.1)",
        random_caps,
        [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<RandomOpStream>(g, cfg.read_percent,
                                                  thread_seed(cfg, t));
        });

  ScenarioCaps inc_caps;
  inc_caps.finite = true;
  r.add("incremental",
        "threads insert the whole graph, striped, into an empty structure",
        inc_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<VectorOpStream>(
              edges_as_ops(stripe(g.edges(), t, cfg.threads), OpKind::kAdd));
        });

  ScenarioCaps dec_caps;
  dec_caps.finite = true;
  dec_caps.prefill = Prefill::kFull;
  r.add("decremental",
        "threads erase every edge, striped, from a full structure "
        "(replacement-search heavy)",
        dec_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<VectorOpStream>(
              edges_as_ops(stripe(g.edges(), t, cfg.threads), OpKind::kRemove));
        });

  ScenarioCaps brand_caps = random_caps;
  brand_caps.batched = true;
  r.add("batch-random",
        "the random mix submitted as apply_batch calls of batch_size ops",
        brand_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<RandomOpStream>(g, cfg.read_percent,
                                                  thread_seed(cfg, t));
        });

  ScenarioCaps binc_caps = inc_caps;
  binc_caps.batched = true;
  r.add("batch-incremental",
        "the incremental insertion submitted as apply_batch calls",
        binc_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<VectorOpStream>(
              edges_as_ops(stripe(g.edges(), t, cfg.threads), OpKind::kAdd));
        });

  ScenarioCaps zipf_caps = random_caps;
  r.add("zipfian",
        "Zipf(0.99)-skewed edge popularity: a hot set of edges absorbs most "
        "operations (contention regime)",
        zipf_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<ZipfianOpStream>(g, cfg.read_percent,
                                                   cfg.seed, t,
                                                   cfg.zipf_theta);
        });

  ScenarioCaps slide_caps;
  slide_caps.uses_read_percent = true;
  r.add("sliding-window",
        "temporal churn: adds march a window through each thread's stripe, "
        "removes expire the trailing edge, reads stay inside the window",
        slide_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<SlidingWindowStream>(
              stripe(g.edges(), t, cfg.threads), cfg.read_percent,
              thread_seed(cfg, t), cfg.window_fraction);
        });

  ScenarioCaps local_caps = random_caps;
  r.add("component-local",
        "operations clustered inside vertex communities with sticky runs "
        "(exercises fine/full per-component locality)",
        local_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<ComponentLocalStream>(
              g, cfg.read_percent, cfg.communities, cfg.seed, t,
              cfg.run_length);
        });

  ScenarioCaps trace_caps;
  trace_caps.finite = true;
  trace_caps.needs_trace = true;
  r.add("trace-replay",
        "replay a recorded trace file (RunConfig::trace_path / "
        "DC_BENCH_TRACE), striped across threads",
        trace_caps, [](const Graph&, const RunConfig& cfg, unsigned t) {
          const auto trace = resolve_trace(cfg, "trace-replay");
          std::vector<Op> mine;
          mine.reserve(trace->ops.size() / cfg.threads + 1);
          for (std::size_t i = t; i < trace->ops.size(); i += cfg.threads)
            mine.push_back(trace->ops[i]);
          return std::make_unique<VectorOpStream>(std::move(mine));
        });

  ScenarioCaps dep_caps = trace_caps;
  dep_caps.tracks_latency = true;
  r.add("trace-replay-dep",
        "replay a recorded trace hash-partitioned by edge: all ops on one "
        "edge stay ordered on one thread (dependency-preserving, closed-loop "
        "per-op latency)",
        dep_caps, [](const Graph&, const RunConfig& cfg, unsigned t) {
          const auto trace = resolve_trace(cfg, "trace-replay-dep");
          return std::make_unique<VectorOpStream>(
              edge_partition(trace->ops, t, cfg.threads));
        });

  // --- Query API v2 scenarios ----------------------------------------------

  ScenarioCaps sizeq_caps = random_caps;
  r.add("size-query",
        "read-heavy value-query mix: reads rotate connected / component_size "
        "/ representative over a churning edge set (Query API v2)",
        sizeq_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<SizeQueryStream>(g, cfg.read_percent,
                                                   thread_seed(cfg, t));
        });

  ScenarioCaps bulk_caps;
  bulk_caps.batched = true;
  bulk_caps.prefill = Prefill::kHalf;
  r.add("bulk-connected",
        "pure connectivity-pair queries submitted as apply_batch calls "
        "(\"answer these 10k pairs at once\"); read-only batches hit the "
        "variants' pure-read exemption",
        bulk_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          // 100% reads: every batch is query-only regardless of
          // cfg.read_percent.
          return std::make_unique<RandomOpStream>(g, 100,
                                                  thread_seed(cfg, t));
        });

  // Batched variants of the skewed scenarios (ROADMAP follow-on): whether
  // combining wins grow under contention is only measurable if the
  // contended mixes can be driven through apply_batch too.
  ScenarioCaps bzipf_caps = zipf_caps;
  bzipf_caps.batched = true;
  r.add("batch-zipfian",
        "the zipfian hot-edge mix submitted as apply_batch calls of "
        "batch_size ops",
        bzipf_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<ZipfianOpStream>(g, cfg.read_percent,
                                                   cfg.seed, t,
                                                   cfg.zipf_theta);
        });

  ScenarioCaps bwin_caps = slide_caps;
  bwin_caps.batched = true;
  r.add("batch-window",
        "the sliding-window churn submitted as apply_batch calls of "
        "batch_size ops",
        bwin_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<SlidingWindowStream>(
              stripe(g.edges(), t, cfg.threads), cfg.read_percent,
              thread_seed(cfg, t), cfg.window_fraction);
        });

  ScenarioCaps blocal_caps = local_caps;
  blocal_caps.batched = true;
  r.add("batch-component-local",
        "the community-clustered sticky-run mix submitted as apply_batch "
        "calls of batch_size ops: whole batches stay inside one community — "
        "the locality regime the label cache's published epochs survive "
        "longest",
        blocal_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          return std::make_unique<ComponentLocalStream>(
              g, cfg.read_percent, cfg.communities, cfg.seed, t,
              cfg.run_length);
        });

  ScenarioCaps fire_caps = random_caps;
  fire_caps.paced = true;
  r.add("firehose",
        "open-loop sustained ingest: the random mix released on a fixed "
        "arrival schedule of DC_BENCH_RATE ops/sec aggregate across threads "
        "(0 = unpaced) — the arrival process of the ingest pipeline "
        "(DESIGN.md §11), whose sojourn tails the bench `ingest` section "
        "measures end to end",
        fire_caps, [](const Graph& g, const RunConfig& cfg, unsigned t) {
          auto inner = std::make_unique<RandomOpStream>(g, cfg.read_percent,
                                                        thread_seed(cfg, t));
          // Aggregate rate split evenly over the workers; each thread owns
          // an independent fixed-interval schedule.
          return std::make_unique<PacedStream>(
              std::move(inner),
              cfg.arrival_rate > 0 ? cfg.arrival_rate / cfg.threads : 0);
        });
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
