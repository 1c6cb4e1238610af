// perfbench_traced's decorator must not change what the structure answers:
// a fixed op array applied to a bare `full` and to a decorated one gives
// identical results, through the single-op API and through apply_batch.
// Exits 0 on success, 1 with a message otherwise.

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "api/factory.hpp"
#include "graph/generators.hpp"
#include "traced_dc.hpp"
#include "util/random.hpp"

namespace {

using namespace condyn;

std::vector<Op> fixed_ops(const Graph& g, std::size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = g.edges()[rng.next_below(g.num_edges())];
    switch (rng.next_below(5)) {
      case 0: ops.push_back(Op::add(e.u, e.v)); break;
      case 1: ops.push_back(Op::remove(e.u, e.v)); break;
      case 2: ops.push_back(Op::connected(e.u, e.v)); break;
      case 3: ops.push_back(Op::component_size(e.u)); break;
      default: ops.push_back(Op::representative(e.v)); break;
    }
  }
  return ops;
}

/// Half the ops one at a time, the rest in batches of 8.
std::vector<uint64_t> apply_all(DynamicConnectivity& dc, const std::vector<Op>& ops) {
  std::vector<uint64_t> out;
  const std::size_t half = ops.size() / 2;
  for (std::size_t i = 0; i < half; ++i) out.push_back(exec_single(dc, ops[i]));
  for (std::size_t i = half; i < ops.size(); i += 8) {
    const std::size_t len = std::min<std::size_t>(8, ops.size() - i);
    const BatchResult r = dc.apply_batch(std::span<const Op>(ops).subspan(i, len));
    out.insert(out.end(), r.values.begin(), r.values.end());
  }
  return out;
}

}  // namespace

int main() {
  const Graph g = gen::erdos_renyi(2048, 3072, 7);
  const std::vector<Op> ops = fixed_ops(g, 40000, 11);

  auto bare = make_variant("full", g.num_vertices());
  auto inner = make_variant("full", g.num_vertices());
  perfbench::TracedDc traced(*inner);

  const std::vector<uint64_t> want = apply_all(*bare, ops);
  const std::vector<uint64_t> got = apply_all(traced, ops);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      std::fprintf(stderr, "decorator_test: op %zu answered %llu, bare %llu\n", i,
                   static_cast<unsigned long long>(got[i]),
                   static_cast<unsigned long long>(want[i]));
      return 1;
    }
  }
  if (traced.components().labels != bare->components().labels ||
      traced.num_vertices() != bare->num_vertices() || traced.name() != bare->name()) {
    std::fprintf(stderr, "decorator_test: final state differs\n");
    return 1;
  }
  const perfbench::TracedDc::Report rep = traced.report();
  const uint64_t batches = (ops.size() - ops.size() / 2 + 7) / 8;
  if (rep.inline_batches.size() != batches || rep.totals.ops_count < ops.size()) {
    std::fprintf(stderr, "decorator_test: recorded %zu batches, expected %llu\n",
                 rep.inline_batches.size(), static_cast<unsigned long long>(batches));
    return 1;
  }
  std::printf("decorator_test: %zu ops identical\n", ops.size());
  return 0;
}
