// Property-based sweeps (TEST_P over seeds / sizes / shapes): structural
// invariants that must hold for *every* randomized run, not just example
// cases — treap shape validity after arbitrary forest histories, spanning
// forest minimality/maximality in the HDT engine, level monotonicity, and
// cross-variant result equality on identical histories.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "api/factory.hpp"
#include "core/hdt.hpp"
#include "core/nb_hdt.hpp"
#include "graph/cc.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

// --------------------------------------------------------------------------
// ETT shape properties over random histories
// --------------------------------------------------------------------------

class EttShapeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EttShapeSweep, TreapValidAfterRandomForestHistory) {
  const Vertex n = 64;
  ett::Forest f(n);
  Xoshiro256 rng(GetParam());
  std::set<Edge> forest_edges;
  Dsu components(n);  // forest constraint oracle

  for (int op = 0; op < 800; ++op) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    Vertex b = static_cast<Vertex>(rng.next_below(n));
    if (a == b) b = (b + 1) % n;
    if (rng.next_below(2) == 0) {
      if (!components.connected(a, b)) {
        f.link(a, b);
        forest_edges.insert(Edge(a, b));
        components.unite(a, b);
      }
    } else if (!forest_edges.empty()) {
      // Remove a random present forest edge.
      auto it = forest_edges.lower_bound(
          Edge(static_cast<Vertex>(rng.next_below(n)), 0));
      if (it == forest_edges.end()) it = forest_edges.begin();
      const Edge e = *it;
      forest_edges.erase(it);
      f.cut(e.u, e.v);
      // Rebuild the DSU oracle (forests have no decremental DSU).
      components = Dsu(n);
      for (const Edge& fe : forest_edges) components.unite(fe.u, fe.v);
    }
    if (op % 100 == 99) {
      // Every component's tree satisfies heap order, parent/child and
      // subtree-counter consistency; tour length is 1 vertex + 2 arcs/edge.
      for (Vertex v = 0; v < n; ++v) {
        const std::size_t nodes = f.validate(v);
        EXPECT_GE(nodes, 1u);
      }
    }
  }
  // Final full check: tour node count = |V_comp| + 2 |E_comp|.
  std::map<Vertex, std::size_t> comp_edges;
  for (const Edge& e : forest_edges) ++comp_edges[components.find(e.u)];
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t nodes = f.validate(v);
    const Vertex root = components.find(v);
    EXPECT_EQ(nodes, components.component_size(v) + 2 * comp_edges[root]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EttShapeSweep,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// --------------------------------------------------------------------------
// HDT level-structure properties
// --------------------------------------------------------------------------

struct HdtSweepParam {
  uint64_t seed;
  Vertex n;
  std::size_t m;
};

class HdtPropertySweep : public ::testing::TestWithParam<HdtSweepParam> {};

TEST_P(HdtPropertySweep, SpanningForestIsMinimalAndLevelsMonotone) {
  const auto [seed, n, m] = GetParam();
  Graph g = gen::erdos_renyi(n, m, seed);
  Hdt dc(n);
  std::size_t spanning = 0;
  std::map<Edge, int> last_level;
  for (const Edge& e : g.edges()) {
    dc.add_edge(e.u, e.v);
    if (dc.is_spanning(e.u, e.v)) ++spanning;
  }
  // Property 1: spanning edge count = n - #components (forest minimality).
  const ComponentInfo cc = connected_components(g);
  EXPECT_EQ(spanning, static_cast<std::size_t>(n - cc.num_components));

  // Property 2: under removal churn, a non-spanning edge's level never
  // decreases while it stays in the graph (levels only rise, the
  // amortization argument of §4.1).
  Xoshiro256 rng(seed ^ 0xabcd);
  std::set<Edge> present(g.edges().begin(), g.edges().end());
  for (int round = 0; round < 300; ++round) {
    const Edge& e = g.edges()[rng.next_below(g.edges().size())];
    if (present.count(e) != 0u) {
      dc.remove_edge(e.u, e.v);
      present.erase(e);
      last_level.erase(e);
    } else {
      dc.add_edge(e.u, e.v);
      present.insert(e);
    }
    for (const Edge& pe : present) {
      const int lvl = dc.edge_level(pe.u, pe.v);
      ASSERT_GE(lvl, 0);
      ASSERT_LE(lvl, dc.max_level());
      auto it = last_level.find(pe);
      if (it != last_level.end()) {
        ASSERT_GE(lvl, it->second) << "level decreased for a live edge";
        it->second = lvl;
      } else {
        last_level.emplace(pe, lvl);
      }
    }
  }
  dc.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HdtPropertySweep,
    ::testing::Values(HdtSweepParam{1, 32, 64}, HdtSweepParam{2, 32, 160},
                      HdtSweepParam{3, 64, 96}, HdtSweepParam{4, 64, 512},
                      HdtSweepParam{5, 128, 256},
                      HdtSweepParam{6, 128, 1024}),
    [](const ::testing::TestParamInfo<HdtSweepParam>& info) {
      return "s" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

// --------------------------------------------------------------------------
// Cross-variant equivalence: identical histories → identical answers
// --------------------------------------------------------------------------

class VariantPairSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(VariantPairSweep, AgreesWithReferenceVariantOnSameHistory) {
  const auto [id, seed] = GetParam();
  const Vertex n = 40;
  auto ref = make_variant(1, n);  // coarse = reference implementation
  auto dut = make_variant(id, n);
  Xoshiro256 rng(seed);
  for (int op = 0; op < 1000; ++op) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    Vertex b = static_cast<Vertex>(rng.next_below(n));
    if (a == b) b = (b + 1) % n;
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(dut->add_edge(a, b), ref->add_edge(a, b)) << "op " << op;
        break;
      case 1:
        ASSERT_EQ(dut->remove_edge(a, b), ref->remove_edge(a, b))
            << "op " << op;
        break;
      default:
        ASSERT_EQ(dut->connected(a, b), ref->connected(a, b)) << "op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, VariantPairSweep,
    ::testing::Combine(::testing::Values(3, 6, 8, 9, 10, 12, 13),
                       ::testing::Values(uint64_t{7}, uint64_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      std::string n = all_variants()[std::get<0>(info.param) - 1].name;
      for (char& c : n)
        if (c == '-') c = '_';
      return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------------------------------
// NbHdt-specific: stamp monotonicity across incarnations
// --------------------------------------------------------------------------

TEST(NbHdtProperties, StampsGrowAcrossIncarnations) {
  // The ABA defense requires every re-insertion of an edge to observe a
  // fresh stamp; edge_level staying valid across 100 incarnations implies
  // the state machine never confused two lives of the edge.
  NbHdt dc(8, NbLockMode::kCoarseSpin);
  dc.add_edge(0, 1);
  dc.add_edge(1, 2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(dc.add_edge(0, 2));
    ASSERT_EQ(dc.edge_level(0, 2), 0);
    ASSERT_FALSE(dc.is_spanning(0, 2));  // always closes the same triangle
    ASSERT_TRUE(dc.remove_edge(0, 2));
    ASSERT_EQ(dc.edge_level(0, 2), -1);
  }
  dc.check_invariants();
}

TEST(NbHdtProperties, QuiescentSpanningCountIsMinimal) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Graph g = gen::erdos_renyi(64, 200, seed);
    NbHdt dc(64, NbLockMode::kFine);
    for (const Edge& e : g.edges()) dc.add_edge(e.u, e.v);
    std::size_t spanning = 0;
    for (const Edge& e : g.edges())
      if (dc.is_spanning(e.u, e.v)) ++spanning;
    const ComponentInfo cc = connected_components(g);
    EXPECT_EQ(spanning, static_cast<std::size_t>(64 - cc.num_components));
  }
}

}  // namespace
}  // namespace condyn
