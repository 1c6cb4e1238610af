#include "inputs.hpp"

#include <cstring>

#include "graph/generators.hpp"
#include "util/random.hpp"

namespace perfbench {

using condyn::Edge;
using condyn::Graph;
using condyn::Xoshiro256;
using condyn::mix64;

namespace {

/// Op mix of a workload: updates per 1000 ops (half adds, half removes,
/// inside the client's own stripe) and the query kinds the rest draws from.
struct Mix {
  uint64_t updates_per_mille;
  bool three_query_kinds;  ///< connected / component_size / representative
  /// Closed-loop ops per thread and round: about a second of work or less,
  /// so every run has many rounds to take the median of.
  std::size_t closed_len;
};

Mix mix_of(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kEmbedded: return {200, false, 1u << 20};  // paper §5.1
    case WorkloadKind::kServeReads: return {10, true, 1u << 20};  // 99% queries
    case WorkloadKind::kServeWrites: return {500, false, 1u << 18};
  }
  return {0, false, 0};
}

Graph make_graph(WorkloadKind k, uint64_t seed) {
  switch (k) {
    case WorkloadKind::kEmbedded:
      // ~110k vertices, |E| ~ 1.2|V|: far beyond one core's L2.
      return condyn::gen::road_like(110'000, seed);
    case WorkloadKind::kServeReads:
      // 1024 communities of 64 vertices, average degree 8 (4 once half is
      // prefilled): components rarely split, so published labels stay hot.
      return condyn::gen::random_components(1u << 16, 1u << 18, 1024, seed);
    case WorkloadKind::kServeWrites:
      // Uniform sparse graph, average degree 0.5 once half is present: a
      // forest of small trees, so nearly every effective update is a link
      // or a cut and churn keeps republishing labels. (At average degree 1,
      // the percolation threshold, component sizes swing so much between
      // seeds that the closed-loop figures spread by 0.14-0.20; at degree 2
      // the threads queue on the giant component's lock.)
      return condyn::gen::erdos_renyi(1u << 16, 1u << 15, seed);
  }
  return Graph();
}

/// One client's program of `len` ops drawn from the workload mix.
Stream make_stream(const Graph& g, const std::vector<uint32_t>& stripe,
                   const Mix& mix, std::size_t len, uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto& edges = g.edges();
  Stream s;
  s.ops.resize(len);
  s.edge.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (rng.next_below(1000) < mix.updates_per_mille) {
      const uint32_t e = stripe[rng.next_below(stripe.size())];
      const Edge& ed = edges[e];
      s.ops[i] = rng.next_below(2) == 0 ? Op::add(ed.u, ed.v)
                                        : Op::remove(ed.u, ed.v);
      s.edge[i] = e;
      continue;
    }
    const Edge& ed = edges[rng.next_below(edges.size())];
    const uint64_t kind = mix.three_query_kinds ? rng.next_below(3) : 0;
    s.ops[i] = kind == 0   ? Op::connected(ed.u, ed.v)
               : kind == 1 ? Op::component_size(ed.u)
                           : Op::representative(ed.v);
    s.edge[i] = kNoEdge;
  }
  return s;
}

uint64_t fold(uint64_t h, uint64_t x) { return mix64(h ^ x) + 0x9e3779b97f4a7c15ull; }

uint64_t digest_of(const Inputs& in, const std::vector<double>& ladder) {
  uint64_t h = fold(0, in.graph.num_vertices());
  for (const Edge& e : in.graph.edges()) h = fold(h, e.key());
  for (uint8_t p : in.prefill) h = fold(h, p);
  for (const auto* streams : {&in.closed, &in.open}) {
    for (const Stream& s : *streams) {
      for (const Op& op : s.ops) {
        h = fold(h, (static_cast<uint64_t>(op.kind) << 56) ^
                        (static_cast<uint64_t>(op.u) << 28) ^ op.v);
      }
    }
  }
  for (double r : ladder) {
    uint64_t bits;
    std::memcpy(&bits, &r, sizeof bits);
    h = fold(h, bits);
  }
  return h;
}

}  // namespace

bool parse_workload(const std::string& name, WorkloadKind& out) {
  if (name == "embedded") out = WorkloadKind::kEmbedded;
  else if (name == "serve-reads") out = WorkloadKind::kServeReads;
  else if (name == "serve-writes") out = WorkloadKind::kServeWrites;
  else return false;
  return true;
}

const char* workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kEmbedded: return "embedded";
    case WorkloadKind::kServeReads: return "serve-reads";
    case WorkloadKind::kServeWrites: return "serve-writes";
  }
  return "?";
}

Inputs make_inputs(WorkloadKind kind, uint64_t seed,
                   const std::vector<double>& ladder_rates) {
  Inputs in;
  in.graph = make_graph(kind, mix64(seed ^ 0x67726170ull));
  const std::size_t m = in.graph.num_edges();

  Xoshiro256 rng(mix64(seed ^ 0x70726566ull));
  in.prefill.resize(m);
  for (auto& p : in.prefill) p = static_cast<uint8_t>(rng.next_below(2));

  std::array<std::vector<uint32_t>, kClients> stripes;
  for (uint32_t e = 0; e < m; ++e) stripes[stripe_of(e)].push_back(e);

  const Mix mix = mix_of(kind);
  // Open-loop streams wrap after 256k ops (32k frames) per connection.
  constexpr std::size_t kOpenLen = 1u << 18;
  for (unsigned c = 0; c < kClients; ++c) {
    in.closed[c] = make_stream(in.graph, stripes[c], mix, mix.closed_len,
                               mix64(seed ^ (0x1000ull + c)));
    in.open[c] = make_stream(in.graph, stripes[c], mix, kOpenLen,
                             mix64(seed ^ (0x2000ull + c)));
  }
  in.digest = digest_of(in, ladder_rates);
  return in;
}

std::vector<Edge> prefill_edges(const Inputs& in) {
  std::vector<Edge> out;
  const auto& edges = in.graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (in.prefill[e]) out.push_back(edges[e]);
  }
  return out;
}

}  // namespace perfbench
