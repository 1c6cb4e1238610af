#include "checks.hpp"

#include <algorithm>

#include "api/factory.hpp"
#include "graph/dsu.hpp"
#include "graph/wire.hpp"
#include "ingest/ingest.hpp"

namespace perfbench {

using condyn::Edge;

uint64_t replay_frames(const Inputs& in, const FrameLogs& logs,
                       std::vector<uint8_t>& presence) {
  uint64_t mismatches = 0;
  for (unsigned c = 0; c < kClients; ++c) {
    const Stream& s = in.open[c];
    const FrameLog& log = logs[c];
    for (std::size_t j = 0; j < log.status.size(); ++j) {
      if (log.status[j] != static_cast<uint8_t>(condyn::wire::Status::kOk)) continue;
      for (unsigned k = 0; k < kFrameOps; ++k) {
        const std::size_t i = (j * kFrameOps + k) % s.ops.size();
        if (s.edge[i] == kNoEdge) continue;
        uint8_t& present = presence[s.edge[i]];
        const bool is_add = s.ops[i].kind == OpKind::kAdd;
        const uint8_t expected = is_add ? !present : present;
        mismatches += log.values[j * kFrameOps + k] != expected;
        present = is_add ? 1 : 0;
      }
    }
  }
  return mismatches;
}

bool matches_dsu(DynamicConnectivity& dc, const Inputs& in,
                 const std::vector<uint8_t>& presence, std::string& why) {
  const auto& edges = in.graph.edges();
  condyn::Dsu dsu(in.graph.num_vertices());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (presence[e]) dsu.unite(edges[e].u, edges[e].v);
  }
  for (Vertex v = 0; v < in.graph.num_vertices(); ++v) {
    const Vertex got = dc.representative(v);
    if (got != dsu.representative(v)) {
      why = "representative(" + std::to_string(v) + ") = " + std::to_string(got) +
            ", oracle says " + std::to_string(dsu.representative(v));
      return false;
    }
  }
  return true;
}

bool recovery_matches(const std::string& snapshot, const std::string& journal,
                      const Inputs& in, const std::vector<uint8_t>& presence,
                      double& recover_ms, std::string& why) {
  auto fresh = condyn::make_variant("full", in.graph.num_vertices());
  const int64_t t0 = now_ns();
  condyn::ingest::RecoveryResult rec =
      condyn::ingest::recover_files(*fresh, snapshot, journal);
  recover_ms = static_cast<double>(now_ns() - t0) / 1e6;
  if (rec.truncated_tail) {
    why = "journal ends in a torn record after a clean stop";
    return false;
  }
  std::vector<Edge> expected;
  const auto& edges = in.graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (presence[e]) expected.push_back(edges[e]);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(rec.live_edges.begin(), rec.live_edges.end());
  if (rec.live_edges != expected) {
    why = "recovered " + std::to_string(rec.live_edges.size()) +
          " edges, acknowledged state has " + std::to_string(expected.size());
    return false;
  }
  return matches_dsu(*fresh, in, presence, why);
}

}  // namespace perfbench
