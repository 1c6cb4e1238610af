// bench_suite — the unified benchmark binary. Replaces the 15 single-figure
// mains: it enumerates both axes (every scenario in
// harness::all_scenarios() × every variant in all_variants() × thread
// counts), prints the familiar per-graph text series/tables, and emits a
// machine-readable JSON report (harness::JsonReport, DESIGN.md §6.3) so the
// perf trajectory is trackable across PRs.
//
//   bench_suite --list                      enumerate scenarios and variants
//   bench_suite --record <scenario> <path> [ops]
//                                           freeze a scenario into a trace
//   bench_suite                             run the suite (env-configured)
//
// Env knobs (harness::env_config, DESIGN.md §3): DC_BENCH_MILLIS / WARMUP /
// THREADS / SCALE / SEED / FULL / VARIANTS / SCENARIOS / READS /
// BATCH_SIZES / TRACE, plus suite-specific:
//   DC_BENCH_SECTIONS  comma list of sections to run (default: all of
//                      kSections, in order)
//   DC_BENCH_JSON      JSON output path (default "bench_suite.json")
// An unknown variant, scenario or section name exits 2 before anything runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "bench_common.hpp"
#include "core/label_cache.hpp"
#include "graph/dsu.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "ingest/ingest.hpp"
#include "util/spinlock.hpp"

namespace {

using namespace condyn;
using harness::EnvConfig;
using harness::JsonReport;
using harness::RunConfig;
using harness::RunResult;
using harness::ScenarioInfo;
using harness::SeriesReport;
using harness::TableReport;

RunConfig base_config(const EnvConfig& env) {
  RunConfig cfg;
  cfg.seed = env.seed;
  cfg.warmup_ms = env.warmup_ms;
  cfg.measure_ms = env.measure_ms;
  cfg.trace_path = env.trace_path;
  return cfg;
}

/// A built-in scenario's table entry, for the sections that run one by
/// name.
const ScenarioInfo& builtin(const char* name) {
  const ScenarioInfo* s = harness::find_scenario(name);
  if (s == nullptr)
    throw std::logic_error(std::string("built-in scenario missing: ") + name);
  return *s;
}

/// The scenarios this invocation can run: DC_BENCH_SCENARIOS if set,
/// otherwise every registered scenario (trace-replay only with a trace).
std::vector<const ScenarioInfo*> selected_scenarios(const EnvConfig& env) {
  std::vector<const ScenarioInfo*> picked;
  if (env.scenarios.empty()) {
    for (const ScenarioInfo& s : harness::all_scenarios()) picked.push_back(&s);
  } else {
    // env_config() resolved every listed name, or threw.
    for (const std::string& name : env.scenarios)
      picked.push_back(&builtin(name.c_str()));
  }
  std::vector<const ScenarioInfo*> out;
  for (const ScenarioInfo* s : picked) {
    if (s->caps.needs_trace && env.trace_path.empty()) {
      std::printf("# skipping scenario %s (set DC_BENCH_TRACE)\n", s->name);
      continue;
    }
    out.push_back(s);
  }
  return out;
}

JsonReport::Record& add_sweep_record(JsonReport& json, const ScenarioInfo& s,
                                     const Graph& g, int variant_id,
                                     const RunConfig& cfg, const RunResult& r) {
  JsonReport::Record& rec =
      json.add_record()
          .field("section", "sweep")
          .field("scenario", s.name)
          .field("graph", g.name)
          .field("variant", bench::variant_label(variant_id))
          .field("variant_id", variant_id)
          .field("threads", static_cast<int>(cfg.threads))
          .field("read_percent",
                 s.caps.uses_read_percent ? cfg.read_percent : 0)
          .field("batch_size",
                 s.caps.batched ? static_cast<uint64_t>(cfg.batch_size)
                                : uint64_t{0})
          .field("ops_per_ms", r.ops_per_ms)
          .field("active_time_percent", r.active_time_percent)
          .field("total_ops", r.total_ops)
          .field("elapsed_ms", r.elapsed_ms)
          .field("batches", r.batches)
          .field("latency_samples", r.latency_samples);
  // Latencies appear only where they were measured: a 0 would read as one.
  if (r.batches > 0) {
    rec.field("batch_latency_us_avg", r.batch_latency_us_avg)
        .field("batch_latency_us_max", r.batch_latency_us_max);
  }
  // Per-op latency percentiles (tracks_latency scenarios, e.g.
  // trace-replay-dep).
  if (r.latency_samples > 0) {
    rec.field("latency_us_avg", r.latency_us_avg)
        .field("latency_us_p50", r.latency_us_p50)
        .field("latency_us_p90", r.latency_us_p90)
        .field("latency_us_p99", r.latency_us_p99)
        .field("latency_us_max", r.latency_us_max);
  }
  return rec.field("reads", r.op_counters.reads)
      .field("read_retries", r.op_counters.read_retries)
      .field("additions", r.op_counters.additions)
      .field("removals", r.op_counters.removals)
      // Per-kind throughput (Query API v2): how many of the measured ops
      // were of each vocabulary kind and at what rate — a size-query mix
      // reports its component_size/representative rates separately from
      // plain connectivity probes.
      .field("ops_add", r.ops_by_kind[0])
      .field("ops_remove", r.ops_by_kind[1])
      .field("ops_connected", r.ops_by_kind[2])
      .field("ops_component_size", r.ops_by_kind[3])
      .field("ops_representative", r.ops_by_kind[4])
      .field("add_per_ms", r.kind_per_ms(OpKind::kAdd))
      .field("remove_per_ms", r.kind_per_ms(OpKind::kRemove))
      .field("connected_per_ms", r.kind_per_ms(OpKind::kConnected))
      .field("component_size_per_ms", r.kind_per_ms(OpKind::kComponentSize))
      .field("representative_per_ms", r.kind_per_ms(OpKind::kRepresentative));
}

/// The main scenario × variant enumeration: scenario × read% × graphs ×
/// variants (× batch sizes for batched scenarios) × thread counts.
void sweep_section(const EnvConfig& env, JsonReport& json) {
  const std::vector<int> variants =
      bench::variant_set(env, bench::all_variant_ids());
  const std::vector<Graph> small = bench::small_graphs(env);
  const std::vector<Graph> large = bench::large_graphs(env);

  for (const ScenarioInfo* s : selected_scenarios(env)) {
    // Trace replay ignores the preset graphs: the trace header says how many
    // vertices its ops address, so the run uses a graph (and structure)
    // sized from the trace itself.
    std::vector<Graph> trace_graph;
    if (s->caps.needs_trace) {
      const io::Trace t = io::load_trace_file(env.trace_path);
      trace_graph.emplace_back(t.num_vertices);
      trace_graph.back().name = env.trace_path;
    }
    const std::vector<int> reads = s->caps.uses_read_percent
                                       ? env.read_percents
                                       : std::vector<int>{0};
    for (int read_percent : reads) {
      std::string title = std::string("Scenario ") + s->name;
      if (s->caps.uses_read_percent)
        title += ", " + std::to_string(read_percent) + "% reads";
      SeriesReport report(title, "ops/ms", env.thread_counts);

      auto run_graph = [&](const Graph& g, bool sweep_threads) {
        report.begin_graph(bench::graph_label(g));
        for (int id : variants) {
          const std::vector<std::size_t> batches =
              s->caps.batched ? env.batch_sizes : std::vector<std::size_t>{1};
          for (std::size_t bs : batches) {
            for (unsigned threads : env.thread_counts) {
              if (!sweep_threads && threads != env.thread_counts.back())
                continue;
              RunConfig cfg = base_config(env);
              cfg.threads = threads;
              cfg.read_percent = read_percent;
              cfg.batch_size = bs;
              auto dc = make_variant(id, g.num_vertices());
              const RunResult r = harness::run_scenario(*s, *dc, g, cfg);
              std::string row = bench::variant_label(id);
              if (s->caps.batched) row += "/b" + std::to_string(bs);
              report.add_point(row, threads, r.ops_per_ms);
              add_sweep_record(json, *s, g, id, cfg, r);
            }
          }
        }
      };

      if (s->caps.needs_trace) {
        for (const Graph& g : trace_graph) run_graph(g, true);
      } else {
        for (const Graph& g : small) run_graph(g, true);
        // Large graphs (Table 2): maximum thread count only, like the paper.
        for (const Graph& g : large) run_graph(g, false);
      }
      report.print();
    }
  }
}

/// Tables 1-2: the benchmark graph inventory — |V|, |E|, degree and
/// component structure of every stand-in (checks DESIGN.md §2's claims).
void graphs_section(const EnvConfig& env, JsonReport& json) {
  TableReport table("Benchmark graphs",
                    {"graph", "|V|", "|E|", "avg deg", "components",
                     "largest %", "max deg"});
  auto add = [&](const Graph& g) {
    const ComponentInfo cc = connected_components(g);
    std::vector<std::size_t> deg(g.num_vertices(), 0);
    for (const Edge& e : g.edges()) {
      ++deg[e.u];
      ++deg[e.v];
    }
    const std::size_t dmax =
        deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
    table.add_row(
        {g.name, std::to_string(g.num_vertices()),
         std::to_string(g.num_edges()), TableReport::num(g.density()),
         std::to_string(cc.num_components),
         TableReport::pct(100.0 * cc.largest_component / g.num_vertices()),
         std::to_string(dmax)});
    json.add_record()
        .field("section", "graphs")
        .field("graph", g.name)
        .field("vertices", static_cast<uint64_t>(g.num_vertices()))
        .field("edges", static_cast<uint64_t>(g.num_edges()))
        .field("avg_degree", g.density())
        .field("components", static_cast<uint64_t>(cc.num_components))
        .field("max_degree", static_cast<uint64_t>(dmax));
  };
  for (const Graph& g : bench::small_graphs(env)) add(g);
  for (const Graph& g : bench::large_graphs(env)) add(g);
  table.print();
}

/// Tables 3-4: sequential-workload statistics — non-spanning operation rates
/// in the random mix and the incremental/decremental scenarios.
void stats_section(const EnvConfig& env, JsonReport& json) {
  TableReport table("Scenario statistics (sequential workload)",
                    {"graph", "scenario", "% non-span. adds",
                     "% non-span. removes", "largest component, %"});
  for (const Graph& g : bench::small_graphs(env)) {
    auto row = [&](const char* scenario, const RunResult& r, double largest) {
      const auto& c = r.op_counters;
      const double add_pct =
          c.additions ? 100.0 * c.nonspanning_additions / c.additions : 0;
      const double rem_pct =
          c.removals ? 100.0 * c.nonspanning_removals / c.removals : 0;
      table.add_row({g.name, scenario, TableReport::pct(add_pct),
                     TableReport::pct(rem_pct),
                     largest >= 0 ? TableReport::pct(largest) : "-"});
      json.add_record()
          .field("section", "stats")
          .field("scenario", scenario)
          .field("graph", g.name)
          .field("nonspanning_add_percent", add_pct)
          .field("nonspanning_remove_percent", rem_pct);
    };

    RunConfig cfg = base_config(env);
    cfg.threads = 1;
    cfg.read_percent = 0;  // updates only: add/remove 50/50
    cfg.warmup_ms = 0;
    auto rnd = make_variant(9, g.num_vertices());
    const ComponentInfo cc = connected_components(
        g.num_vertices(), harness::random_half(g, env.seed));
    row("random", harness::run_scenario(builtin("random"), *rnd, g, cfg),
        100.0 * cc.largest_component / g.num_vertices());

    auto inc = make_variant(9, g.num_vertices());
    row("incremental",
        harness::run_scenario(builtin("incremental"), *inc, g, cfg), -1);

    auto dec = make_variant(9, g.num_vertices());
    row("decremental",
        harness::run_scenario(builtin("decremental"), *dec, g, cfg), -1);
  }
  table.print();
}

/// §5.3 "Lock-Free Reads": share of lock-free connectivity checks that
/// succeed on their first attempt (the paper reports >99.99%).
void retries_section(const EnvConfig& env, JsonReport& json) {
  TableReport table("Lock-free read retries, random scenario, max threads",
                    {"graph", "read %", "reads", "retries", "first-try %"});
  const unsigned threads = env.thread_counts.back();
  for (const Graph& g : bench::small_graphs(env)) {
    for (int read_pct : env.read_percents) {
      auto dc = make_variant(9, g.num_vertices());
      RunConfig cfg = base_config(env);
      cfg.threads = threads;
      cfg.read_percent = read_pct;
      const RunResult r = harness::run_scenario(builtin("random"), *dc, g, cfg);
      const auto& c = r.op_counters;
      const double first_try =
          c.reads ? 100.0 * (1.0 - static_cast<double>(c.read_retries) /
                                       static_cast<double>(c.reads))
                  : 100.0;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", first_try);
      table.add_row({g.name, std::to_string(read_pct),
                     std::to_string(c.reads), std::to_string(c.read_retries),
                     buf});
      json.add_record()
          .field("section", "retries")
          .field("graph", g.name)
          .field("read_percent", read_pct)
          .field("reads", c.reads)
          .field("read_retries", c.read_retries)
          .field("first_try_percent", first_try);
    }
  }
  table.print();
}

/// §5.2 "Sampling" ablation: the Iyer-et-al. replacement-sampling fast path
/// on vs off in the replacement-heavy decremental scenario.
void ablation_section(const EnvConfig& env, JsonReport& json) {
  TableReport table("Replacement sampling ablation, decremental scenario",
                    {"graph", "variant", "threads", "ops/ms (sampling)",
                     "ops/ms (off)", "speedup"});
  const unsigned threads = env.thread_counts.back();
  for (const Graph& g : bench::small_graphs(env)) {
    for (int id : bench::variant_set(env, {1, 9})) {
      double with_s = 0, without_s = 0;
      for (bool sampling : {true, false}) {
        auto dc = make_variant(id, g.num_vertices(), sampling);
        RunConfig cfg = base_config(env);
        cfg.threads = threads;
        const RunResult r =
            harness::run_scenario(builtin("decremental"), *dc, g, cfg);
        (sampling ? with_s : without_s) = r.ops_per_ms;
      }
      table.add_row({g.name, bench::variant_label(id),
                     std::to_string(threads), TableReport::num(with_s),
                     TableReport::num(without_s),
                     TableReport::num(without_s > 0 ? with_s / without_s : 0)});
      json.add_record()
          .field("section", "ablation")
          .field("graph", g.name)
          .field("variant", bench::variant_label(id))
          .field("threads", static_cast<int>(threads))
          .field("ops_per_ms_sampling", with_s)
          .field("ops_per_ms_no_sampling", without_s);
    }
  }
  table.print();
}

/// DESIGN.md §7.4: allocation cost of the update path. Runs the random
/// scenario (update-heavy) per variant at max threads and reports the
/// memory-subsystem counters the workers accumulated during the measured
/// window: allocator round trips per operation, the pool reuse share, and
/// the process-wide resident footprint of pools + map segments. With
/// DC_POOL=0 every pool allocation degrades to new/delete, which reproduces
/// the seed's allocation behaviour — the pooled/passthrough ratio is the
/// "allocator calls per update op" win the memory overhaul claims.
void memory_section(const EnvConfig& env, JsonReport& json) {
  TableReport table(
      std::string("Memory subsystem, random scenario (pooling ") +
          (pool_stats::pooling_enabled() ? "on" : "OFF — DC_POOL=0") + ")",
      {"graph", "variant", "threads", "allocs/1k ops", "pool hit %",
       "recycled/1k ops", "alloc KiB/1k ops", "resident +MiB"});
  const unsigned threads = env.thread_counts.back();
  for (const Graph& g : bench::small_graphs(env)) {
    for (int id : bench::variant_set(env, {1, 9})) {
      auto dc = make_variant(id, g.num_vertices());
      RunConfig cfg = base_config(env);
      cfg.threads = threads;
      cfg.read_percent = 0;  // updates only: the allocation-heavy mix
      // resident_bytes() is a process-wide gauge and pool slabs persist
      // across runs (earlier rows' slabs get *reused* by later rows), so
      // each row reports its own growth, not the cumulative footprint.
      const uint64_t resident_before = pool_stats::resident_bytes();
      const RunResult r = harness::run_scenario(builtin("random"), *dc, g, cfg);
      const uint64_t resident_after = pool_stats::resident_bytes();
      const uint64_t resident_delta =
          resident_after > resident_before ? resident_after - resident_before
                                           : 0;
      const auto& m = r.mem_counters;
      const double ops = r.total_ops > 0 ? static_cast<double>(r.total_ops) : 1;
      const double pool_served =
          static_cast<double>(m.pool_fresh + m.pool_reused);
      const double hit_pct =
          pool_served > 0 ? 100.0 * m.pool_reused / pool_served : 0;
      const double resident_mib =
          static_cast<double>(resident_delta) / (1024.0 * 1024.0);
      table.add_row(
          {g.name, bench::variant_label(id), std::to_string(threads),
           TableReport::num(1000.0 * m.allocator_calls / ops),
           TableReport::pct(hit_pct),
           TableReport::num(1000.0 * m.pool_recycled / ops),
           TableReport::num(1000.0 * m.bytes_allocated / 1024.0 / ops),
           TableReport::num(resident_mib)});
      json.add_record()
          .field("section", "memory")
          .field("scenario", "random")
          .field("graph", g.name)
          .field("variant", bench::variant_label(id))
          .field("variant_id", id)
          .field("threads", static_cast<int>(threads))
          .field("pooling", pool_stats::pooling_enabled() ? 1 : 0)
          .field("total_ops", r.total_ops)
          .field("ops_per_ms", r.ops_per_ms)
          .field("allocator_calls", m.allocator_calls)
          .field("allocator_frees", m.allocator_frees)
          .field("bytes_allocated", m.bytes_allocated)
          .field("allocs_per_op",
                 static_cast<double>(m.allocator_calls) / ops)
          .field("pool_fresh", m.pool_fresh)
          .field("pool_reused", m.pool_reused)
          .field("pool_recycled", m.pool_recycled)
          .field("pool_hit_percent", hit_pct)
          .field("resident_bytes", resident_delta)
          .field("resident_bytes_total", resident_after);
    }
  }
  table.print();
}

/// Tentpole measurement (DESIGN.md §8): the label cache on/off × read share
/// × thread count on the component-local scenario — the cache's target
/// workload (read-mostly traffic with community locality) — over two
/// deliberately opposed graphs: the fragmented road network, where uniform
/// churn keeps invalidating whatever the readers just repaired (the honest
/// worst case), and the community-structured graph, where per-component
/// invalidation leaves the other communities' labels hot. The interesting
/// output is the *crossover*: at 50% reads the bracket overhead shows up as
/// pure cost; by 99-100% reads the O(1) hit path should win by multiples on
/// the community graph (the acceptance bar is >= 3x at 99% reads). The off
/// rows use the same binary with the process-wide kill switch, so both
/// sides pay identical code layout — only the hit path toggles.
void labels_section(const EnvConfig& env, JsonReport& json) {
  if (!LabelCache::env_enabled()) {
    std::printf("# labels section skipped (DC_LABEL_CACHE=0)\n");
    return;
  }
  std::vector<int> cache_ids;
  for (const VariantInfo& v : all_variants())
    if (v.caps.label_cache) cache_ids.push_back(v.id);
  std::vector<int> variants;
  for (int id : bench::variant_set(env, cache_ids)) {
    const VariantInfo* v = find_variant(id);
    if (v != nullptr && v->caps.label_cache) variants.push_back(id);
  }
  if (variants.empty()) {
    std::printf("# labels section skipped (no cache-capable variant in "
                "DC_BENCH_VARIANTS)\n");
    return;
  }
  const ScenarioInfo* s = harness::find_scenario("component-local");
  const std::vector<Graph> small = bench::small_graphs(env);
  std::vector<const Graph*> graphs{&small.front()};
  for (const Graph& g : small) {
    if (g.name.find("components") != std::string::npos) {
      graphs.push_back(&g);
      break;
    }
  }
  for (int read_percent : {50, 90, 99, 100}) {
    SeriesReport report("Label cache crossover, component-local scenario, " +
                            std::to_string(read_percent) + "% reads",
                        "ops/ms", env.thread_counts);
    for (const Graph* g : graphs) {
      report.begin_graph(bench::graph_label(*g));
      for (int id : variants) {
        for (int cache_on : {1, 0}) {
          LabelCache::set_globally_enabled(cache_on != 0);
          for (unsigned threads : env.thread_counts) {
            RunConfig cfg = base_config(env);
            cfg.threads = threads;
            cfg.read_percent = read_percent;
            auto dc = make_variant(id, g->num_vertices());
            const RunResult r = harness::run_scenario(*s, *dc, *g, cfg);
            report.add_point(std::string(bench::variant_label(id)) +
                                 (cache_on != 0 ? "/cache" : "/walk"),
                             threads, r.ops_per_ms);
            json.add_record()
                .field("section", "labels")
                .field("scenario", s->name)
                .field("graph", g->name)
                .field("variant", bench::variant_label(id))
                .field("variant_id", id)
                .field("threads", static_cast<int>(threads))
                .field("read_percent", read_percent)
                .field("label_cache", cache_on)
                .field("ops_per_ms", r.ops_per_ms)
                .field("total_ops", r.total_ops)
                .field("reads", r.op_counters.reads)
                .field("read_retries", r.op_counters.read_retries)
                .field("label_hits", r.op_counters.label_hits)
                .field("label_misses", r.op_counters.label_misses)
                .field("label_publishes", r.op_counters.label_publishes)
                .field("connected_per_ms", r.kind_per_ms(OpKind::kConnected));
          }
        }
      }
    }
    LabelCache::set_globally_enabled(true);
    report.print();
  }
}

/// One timed multi-producer run through an IngestService: `threads`
/// producers each pull ops from their own stream and submit until the
/// wall-clock window closes, then the service drains. Returns acked ops/ms.
struct IngestRun {
  double ops_per_ms = 0;
  double elapsed_ms = 0;
  ingest::IngestStats stats;
  std::vector<uint32_t> sojourn_ns;  ///< sorted; record_sojourn runs only
};

IngestRun run_ingest(DynamicConnectivity& dc, const Graph& g,
                     const EnvConfig& env, unsigned threads, int read_percent,
                     ingest::IngestOptions opts, double rate) {
  ingest::IngestService svc(dc, std::move(opts));
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < threads; ++t) {
    producers.emplace_back([&, t] {
      harness::PacedStream stream(
          std::make_unique<harness::RandomOpStream>(
              g, read_percent, mix64(env.seed ^ (0x16e57ull + t))),
          rate > 0 ? rate / threads : 0);
      Op op;
      while (!stop.load(std::memory_order_relaxed) && stream.next(op))
        svc.submit(op);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(env.measure_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& p : producers) p.join();
  svc.drain();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  IngestRun r;
  r.stats = svc.stats();
  r.elapsed_ms = elapsed_ms;
  r.ops_per_ms =
      elapsed_ms > 0 ? static_cast<double>(r.stats.acked) / elapsed_ms : 0;
  r.sojourn_ns = svc.take_sojourn_ns();
  std::sort(r.sojourn_ns.begin(), r.sojourn_ns.end());
  svc.stop();
  return r;
}

/// The streaming ingest section (DESIGN.md §11): four records that pin the
/// subsystem's acceptance claims.
///   closed-loop    the harness batch-random scenario at batch 256 — the
///                  pre-ingest way to amortize synchronization, and the
///                  throughput bar group commit must clear;
///   group-commit   the same mix submitted by `threads` producers through
///                  the MPSC ring + one applier draining <= 256 per pass;
///                  these two run as kIngestPairs interleaved pairs, each
///                  run on a fresh structure, and record the median
///                  (ops_per_ms) and quartiles of their runs;
///   firehose       group commit again, but producers paced open-loop at
///                  half the measured group-commit median, so the queue is
///                  stable and the tail is meaningful — reports sojourn
///                  p50/p99/p999;
///   recovery       a journaled run with a mid-stream snapshot, then a cold
///                  recover_files into a fresh structure, timed and verified
///                  against a DSU built from the recovered live-edge set.
void ingest_section(const EnvConfig& env, JsonReport& json) {
  const std::vector<Graph> small = bench::small_graphs(env);
  if (small.empty()) return;
  const Graph& g = small.front();
  const unsigned threads = env.thread_counts.back();
  const int read_percent = env.read_percents.front();
  constexpr std::size_t kBatch = 256;
  const char* variant = "full";
  TableReport table("Streaming ingest (DESIGN.md §11)",
                    {"mode", "threads", "rate/s", "ops/ms", "p50 us",
                     "p99 us", "p999 us"});
  auto add_record = [&](const char* mode, double rate, double ops_per_ms,
                        const std::vector<uint32_t>& soj) {
    // Sojourn percentiles in µs; they appear only where sojourn was
    // recorded: a 0 would read as one.
    const double pcts[] = {0.50, 0.99, 0.999};
    std::vector<std::string> cells{mode, std::to_string(threads),
                                   std::to_string(static_cast<uint64_t>(rate)),
                                   TableReport::num(ops_per_ms)};
    for (double p : pcts)
      cells.push_back(soj.empty()
                          ? "-"
                          : TableReport::num(harness::quantile(soj, p) / 1e3));
    table.add_row(std::move(cells));
    JsonReport::Record* rec = &json.add_record()
               .field("section", "ingest")
               .field("mode", mode)
               .field("scenario", "batch-random")
               .field("graph", g.name)
               .field("variant", variant)
               .field("threads", static_cast<int>(threads))
               .field("read_percent", read_percent)
               .field("batch_size", static_cast<uint64_t>(kBatch))
               .field("rate", rate)
               .field("ops_per_ms", ops_per_ms);
    if (!soj.empty()) {
      rec->field("sojourn_us_p50", harness::quantile(soj, 0.50) / 1e3)
          .field("sojourn_us_p99", harness::quantile(soj, 0.99) / 1e3)
          .field("sojourn_us_p999", harness::quantile(soj, 0.999) / 1e3);
    }
    return rec;
  };

  // 1-2. Closed-loop batch baseline (the harness scenario, same mix) and
  // group commit at full producer speed, as interleaved pairs on fresh
  // structures: with one 20 ms window per side their ratio swung between
  // 0.34x and 2.12x on a 4-CPU VM. Odd pairs run group commit first, so
  // slow drift in the host's speed does not favour one side.
  constexpr int kIngestPairs = 5;
  const ScenarioInfo* batch_random = harness::find_scenario("batch-random");
  ingest::IngestOptions base;
  base.max_batch = kBatch;
  std::vector<double> closed, group;
  auto run_closed = [&] {
    if (batch_random == nullptr) return;
    RunConfig cfg = base_config(env);
    cfg.threads = threads;
    cfg.read_percent = read_percent;
    cfg.batch_size = kBatch;
    auto dc = make_variant(variant, g.num_vertices());
    closed.push_back(harness::run_scenario(*batch_random, *dc, g, cfg)
                         .ops_per_ms);
  };
  auto run_group = [&] {
    auto dc = make_variant(variant, g.num_vertices());
    group.push_back(
        run_ingest(*dc, g, env, threads, read_percent, base, /*rate=*/0)
            .ops_per_ms);
  };
  for (int i = 0; i < kIngestPairs; ++i) {
    if (i % 2 == 0) {
      run_closed();
      run_group();
    } else {
      run_group();
      run_closed();
    }
  }
  auto add_pairs_record = [&](const char* mode, std::vector<double>& runs) {
    std::sort(runs.begin(), runs.end());
    const double median = harness::quantile(runs, 0.5);
    add_record(mode, 0, median, {})
        ->field("runs", static_cast<uint64_t>(runs.size()))
        .field("ops_per_ms_q1", harness::quantile(runs, 0.25))
        .field("ops_per_ms_q3", harness::quantile(runs, 0.75));
    return median;
  };
  const double closed_ops =
      closed.empty() ? 0 : add_pairs_record("closed-loop", closed);
  const double group_ops = add_pairs_record("group-commit", group);
  if (closed_ops > 0 && group_ops > 0)
    std::printf("# ingest group-commit/closed-loop(b%zu) = %.2fx "
                "(medians of %d pairs)\n",
                kBatch, group_ops / closed_ops, kIngestPairs);

  // 3. Open-loop firehose at half of the measured group-commit capacity: a
  // stable queue whose tail means something.
  {
    const double rate = 0.5 * group_ops * 1000.0;
    ingest::IngestOptions opts = base;
    opts.record_sojourn = true;
    auto dc = make_variant(variant, g.num_vertices());
    const IngestRun r =
        run_ingest(*dc, g, env, threads, read_percent, opts, rate);
    add_record("firehose", rate, r.ops_per_ms, r.sojourn_ns);
  }

  // 4. Durability + recovery: journaled run, snapshot at the half-way
  // point, then a timed cold recovery verified against the live-edge DSU.
  {
    const std::string journal = "bench_ingest_journal.dcjl";
    const std::string snapshot = "bench_ingest_snapshot.dcsn";
    std::remove(journal.c_str());
    std::remove(snapshot.c_str());
    ingest::IngestOptions opts = base;
    opts.journal_path = journal;
    double journaled_ops = 0;
    {
      auto dc = make_variant(variant, g.num_vertices());
      ingest::IngestService svc(*dc, opts);
      std::atomic<bool> stop{false};
      std::vector<std::thread> producers;
      for (unsigned t = 0; t < threads; ++t) {
        producers.emplace_back([&, t] {
          harness::RandomOpStream stream(g, read_percent,
                                         mix64(env.seed ^ (0xf1a5ull + t)));
          Op op;
          while (!stop.load(std::memory_order_relaxed) && stream.next(op))
            svc.submit(op);
        });
      }
      const auto t0 = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(env.measure_ms / 2));
      svc.snapshot_to(snapshot);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(env.measure_ms - env.measure_ms / 2));
      stop.store(true, std::memory_order_relaxed);
      for (auto& p : producers) p.join();
      svc.drain();
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      journaled_ops = elapsed_ms > 0 ? svc.stats().acked / elapsed_ms : 0;
      svc.stop();
    }
    auto recovered = make_variant(variant, g.num_vertices());
    const auto r0 = std::chrono::steady_clock::now();
    const ingest::RecoveryResult rec =
        ingest::recover_files(*recovered, snapshot, journal);
    const double recovery_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - r0)
            .count();
    // Verify: the recovered structure must agree with a DSU over the
    // recovered live-edge set on every vertex's representative.
    Dsu oracle(g.num_vertices());
    for (const Edge& e : rec.live_edges) oracle.unite(e.u, e.v);
    bool verified = true;
    for (Vertex v = 0; v < g.num_vertices() && verified; ++v)
      verified = recovered->representative(v) == oracle.representative(v);
    add_record("recovery", 0, journaled_ops, {})
        ->field("recovery_ms", recovery_ms)
        .field("journal_records", rec.journal_records)
        .field("replayed", rec.replayed)
        .field("snapshot_edges", rec.snapshot_edges)
        .field("live_edges", static_cast<uint64_t>(rec.live_edges.size()))
        .field("verified", verified ? 1 : 0);
    std::printf("# ingest recovery: %llu snapshot edges + %llu/%llu journal "
                "records in %.2f ms (%s)\n",
                static_cast<unsigned long long>(rec.snapshot_edges),
                static_cast<unsigned long long>(rec.replayed),
                static_cast<unsigned long long>(rec.journal_records),
                recovery_ms, verified ? "verified" : "MISMATCH");
    std::remove(journal.c_str());
    std::remove(snapshot.c_str());
    std::remove((snapshot + ".tmp").c_str());
  }
  table.print();
}

/// The cross-machine calibration record (scripts/bench_diff.py): one fixed
/// single-thread coarse run on a fixed graph with fixed windows, deliberately
/// independent of every DC_BENCH_* knob, emitted into every artifact. Two
/// artifacts' sweep throughputs become comparable across machines by scaling
/// with the ratio of their calibration ops_per_ms (ROADMAP: "teach bench_diff
/// to normalize against a calibration record").
void calibration_record(JsonReport& json) {
  Graph g = gen::erdos_renyi(4096, 16384, /*seed=*/7);
  g.name = "calibration-er-4096";
  RunConfig cfg;
  cfg.threads = 1;
  cfg.read_percent = 80;
  cfg.seed = 7;
  cfg.warmup_ms = 20;
  cfg.measure_ms = 100;
  // By name, not id: the record's label and the measured variant must never
  // drift apart if the variant table is ever reordered.
  auto dc = make_variant("coarse", g.num_vertices());
  const RunResult r = harness::run_scenario(builtin("random"), *dc, g, cfg);
  std::printf("# calibration (coarse, 1 thread, fixed config): %.1f ops/ms\n",
              r.ops_per_ms);
  json.add_record()
      .field("section", "calibration")
      .field("graph", g.name)
      .field("variant", "coarse")
      .field("threads", 1)
      .field("ops_per_ms", r.ops_per_ms)
      .field("total_ops", r.total_ops);
}

/// Minimal DynamicConnectivity facade over union-find: additions and
/// queries only; removals abort (never issued by the incremental driver).
class DsuDc final : public DynamicConnectivity {
 public:
  explicit DsuDc(Vertex n) : dsu_(n) {}

  bool add_edge(Vertex u, Vertex v) override {
    std::lock_guard<SpinLock> lk(mu_);
    return dsu_.unite(u, v);
  }
  bool remove_edge(Vertex, Vertex) override {
    std::abort();  // incremental-only structure
  }
  bool connected(Vertex u, Vertex v) override {
    std::lock_guard<SpinLock> lk(mu_);
    return dsu_.connected(u, v);
  }
  uint64_t component_size(Vertex u) override {
    std::lock_guard<SpinLock> lk(mu_);
    return dsu_.component_size(u);
  }
  Vertex representative(Vertex u) override {
    std::lock_guard<SpinLock> lk(mu_);
    return dsu_.representative(u);
  }
  Vertex num_vertices() const override { return dsu_.num_vertices(); }
  std::string name() const override { return "dsu (incremental-only)"; }

 private:
  Dsu dsu_;
  SpinLock mu_;
};

/// Related-work ablation: what the fully-dynamic structures pay for
/// supporting deletions, vs a lock-protected union-find that cannot delete.
void dsu_section(const EnvConfig& env, JsonReport& json) {
  SeriesReport report("Incremental scenario: DSU baseline vs fully-dynamic",
                      "ops/ms", env.thread_counts);
  for (const Graph& g : bench::small_graphs(env)) {
    report.begin_graph(bench::graph_label(g));
    for (unsigned threads : env.thread_counts) {
      RunConfig cfg = base_config(env);
      cfg.threads = threads;
      DsuDc dsu(g.num_vertices());
      const RunResult r =
          harness::run_scenario(builtin("incremental"), dsu, g, cfg);
      report.add_point("dsu", threads, r.ops_per_ms);
      json.add_record()
          .field("section", "dsu")
          .field("graph", g.name)
          .field("variant", "dsu")
          .field("threads", static_cast<int>(threads))
          .field("ops_per_ms", r.ops_per_ms);
      for (int id : bench::variant_set(env, {1, 9})) {
        auto dc = make_variant(id, g.num_vertices());
        const RunResult rv =
            harness::run_scenario(builtin("incremental"), *dc, g, cfg);
        report.add_point(bench::variant_label(id), threads, rv.ops_per_ms);
        json.add_record()
            .field("section", "dsu")
            .field("graph", g.name)
            .field("variant", bench::variant_label(id))
            .field("threads", static_cast<int>(threads))
            .field("ops_per_ms", rv.ops_per_ms);
      }
    }
  }
  report.print();
}

void list_registries() {
  std::printf("Scenarios (%zu registered):\n",
              harness::all_scenarios().size());
  for (const ScenarioInfo& s : harness::all_scenarios()) {
    std::printf("  %2d  %-18s [%s%s%s%s]  %s\n", s.id, s.name,
                s.caps.finite ? "finite" : "timed",
                s.caps.uses_read_percent ? ",reads" : "",
                s.caps.batched ? ",batched" : "",
                s.caps.needs_trace ? ",trace" : "", s.description);
  }
  std::printf("\nVariants (%zu registered):\n", all_variants().size());
  for (const VariantInfo& v : all_variants()) {
    std::printf("  %2d  %-18s [%s%s%s]  %s\n", v.id, v.name,
                v.caps.lock_free_reads ? "nbreads" : "blocking",
                v.caps.atomic_batch ? ",atomic" : "",
                v.caps.combining ? ",combining" : "", v.description);
  }
}

int record_command(int argc, char** argv, const EnvConfig& env) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: bench_suite --record <scenario> <path> [ops]\n");
    return 2;
  }
  const ScenarioInfo* s = harness::find_scenario(argv[2]);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown scenario \"%s\" (see --list)\n", argv[2]);
    return 2;
  }
  const std::size_t max_ops =
      argc > 4 ? static_cast<std::size_t>(std::strtoull(argv[4], nullptr, 10))
               : 100000;
  const Graph g = bench::small_graphs(env).front();
  RunConfig cfg = base_config(env);
  cfg.threads = 1;
  cfg.read_percent = env.read_percents.front();
  harness::record_trace_file(*s, g, cfg, max_ops, argv[3]);
  const io::Trace t = io::load_trace_file(argv[3]);
  std::printf("recorded %zu ops of scenario %s on %s (|V|=%u) -> %s\n",
              t.ops.size(), s->name, g.name.c_str(), t.num_vertices, argv[3]);
  return 0;
}

using Section = void (*)(const EnvConfig&, JsonReport&);

/// Every section, in default run order (DESIGN.md §6.4).
constexpr std::pair<const char*, Section> kSections[] = {
    {"graphs", graphs_section},     {"sweep", sweep_section},
    {"stats", stats_section},       {"retries", retries_section},
    {"ablation", ablation_section}, {"dsu", dsu_section},
    {"memory", memory_section},     {"labels", labels_section},
    {"ingest", ingest_section},
};

/// The sections DC_BENCH_SECTIONS names (default: all), resolved before any
/// runs; an unknown name throws std::invalid_argument.
std::vector<Section> selected_sections() {
  std::vector<Section> out;
  const std::vector<std::string> names = harness::env_list("DC_BENCH_SECTIONS");
  if (names.empty()) {
    for (const auto& [name, run] : kSections) out.push_back(run);
  }
  for (const std::string& name : names) {
    const auto* it =
        std::find_if(std::begin(kSections), std::end(kSections),
                     [&](const auto& sec) { return name == sec.first; });
    if (it == std::end(kSections)) {
      throw std::invalid_argument("DC_BENCH_SECTIONS: unknown section \"" +
                                  name + "\"");
    }
    out.push_back(it->second);
  }
  return out;
}

int run(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
    list_registries();
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "--record") == 0) {
    return record_command(argc, argv, harness::env_config());
  }
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_suite [--list | --record <scenario> <path> "
                 "[ops]]\n(the run itself is configured via DC_BENCH_* env "
                 "vars, see DESIGN.md §3)\n");
    return std::strcmp(argv[1], "--help") == 0 ? 0 : 2;
  }

  const EnvConfig env = harness::env_config();
  const std::vector<Section> sections = selected_sections();
  bench::print_env_banner("bench_suite: unified scenario x variant sweep", env);

  JsonReport json("bench_suite");
  json.meta("seed", env.seed);
  json.meta("scale", env.full ? 1.0 : env.scale);
  json.meta("measure_ms", static_cast<uint64_t>(env.measure_ms));
  json.meta("warmup_ms", static_cast<uint64_t>(env.warmup_ms));
  json.meta("full", static_cast<uint64_t>(env.full ? 1 : 0));

  // Unconditional (not a DC_BENCH_SECTIONS member): every artifact must be
  // normalizable by bench_diff, whatever sections it was run with.
  calibration_record(json);
  for (Section section : sections) section(env, json);

  const char* json_env = std::getenv("DC_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env ? json_env : "bench_suite.json";
  json.save_file(json_path);
  std::printf("# %zu JSON records -> %s\n", json.size(), json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 2;
  }
}
