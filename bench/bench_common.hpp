#pragma once

// Shared scaffolding for the benchmark binaries (bench_suite plus the
// google-benchmark micro benches). Every binary honors the DC_BENCH_*
// environment knobs (see harness::env_config): by default graphs are
// scaled-down stand-ins sized for a laptop; DC_BENCH_FULL=1 selects
// paper-sized graphs and all variants.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "graph/cc.hpp"
#include "graph/generators.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"

namespace condyn::bench {

inline std::vector<Graph> small_graphs(const harness::EnvConfig& env) {
  std::vector<Graph> out;
  for (const auto& p : gen::small_graph_presets())
    out.push_back(p.make(env.full ? 1.0 : env.scale, env.seed));
  return out;
}

inline std::vector<Graph> large_graphs(const harness::EnvConfig& env) {
  std::vector<Graph> out;
  if (!env.full) return out;  // paper-size only; hours on a laptop otherwise
  for (const auto& p : gen::large_graph_presets())
    out.push_back(p.make(1.0, env.seed));
  return out;
}

inline std::vector<int> variant_set(const harness::EnvConfig& env,
                                    std::vector<int> defaults) {
  return env.variants.empty() ? std::move(defaults) : env.variants;
}

/// Every variant id, in table (= paper) order.
inline std::vector<int> all_variant_ids() {
  std::vector<int> ids;
  for (const VariantInfo& v : all_variants()) ids.push_back(v.id);
  return ids;
}

inline const char* variant_label(int id) {
  const VariantInfo* v = find_variant(id);
  return v != nullptr ? v->name : "?";
}

inline std::string graph_label(const Graph& g) {
  return g.name + "  |V|=" + std::to_string(g.num_vertices()) +
         " |E|=" + std::to_string(g.num_edges());
}

inline void print_env_banner(const char* what,
                             const harness::EnvConfig& env) {
  std::printf(
      "# %s\n# scale=%.3f seed=%llu warmup=%dms measure=%dms full=%d\n"
      "# (env knobs: DC_BENCH_SCALE/SEED/WARMUP/MILLIS/THREADS/VARIANTS/"
      "SCENARIOS/READS/BATCH_SIZES/TRACE/FULL)\n\n",
      what, env.full ? 1.0 : env.scale,
      static_cast<unsigned long long>(env.seed), env.warmup_ms,
      env.measure_ms, env.full ? 1 : 0);
}

}  // namespace condyn::bench
