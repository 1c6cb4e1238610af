// Tests for the HDT dynamic-connectivity engine (paper §4.1): randomized
// oracle comparison, level-structure invariants, replacement-search paths.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/hdt.hpp"
#include "graph/cc.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

TEST(Hdt, EmptyGraphDisconnected) {
  Hdt dc(8);
  EXPECT_FALSE(dc.connected(0, 7));
  EXPECT_TRUE(dc.connected(3, 3));
  EXPECT_FALSE(dc.has_edge(0, 1));
}

TEST(Hdt, AddRemoveSingleEdge) {
  Hdt dc(4);
  auto out = dc.add_edge(0, 1);
  EXPECT_TRUE(out.performed);
  EXPECT_TRUE(out.spanning);
  EXPECT_TRUE(dc.connected(0, 1));
  EXPECT_TRUE(dc.is_spanning(0, 1));
  // Duplicate insert is a no-op.
  EXPECT_FALSE(dc.add_edge(1, 0).performed);
  out = dc.remove_edge(0, 1);
  EXPECT_TRUE(out.performed);
  EXPECT_FALSE(dc.connected(0, 1));
  EXPECT_FALSE(dc.remove_edge(0, 1).performed);
}

TEST(Hdt, NonSpanningEdgeDoesNotTouchForest) {
  Hdt dc(4);
  dc.add_edge(0, 1);
  dc.add_edge(1, 2);
  auto out = dc.add_edge(0, 2);  // closes a triangle
  EXPECT_TRUE(out.performed);
  EXPECT_FALSE(out.spanning);
  EXPECT_FALSE(dc.is_spanning(0, 2));
  EXPECT_EQ(dc.edge_level(0, 2), 0);
  // Removing the non-spanning edge keeps connectivity.
  dc.remove_edge(0, 2);
  EXPECT_TRUE(dc.connected(0, 2));
}

TEST(Hdt, ReplacementFoundOnSpanningRemoval) {
  Hdt dc(4);
  dc.add_edge(0, 1);
  dc.add_edge(1, 2);
  dc.add_edge(0, 2);  // non-spanning
  dc.remove_edge(0, 1);  // spanning, but 0-2-1 remains
  EXPECT_TRUE(dc.connected(0, 1));
  EXPECT_TRUE(dc.is_spanning(0, 2));  // the replacement became spanning
  dc.check_invariants();
}

TEST(Hdt, CascadingReplacementsOnCycleTeardown) {
  // Ring of 16: removing spanning edges one by one must keep the ring
  // connected until fewer than n edges remain.
  const Vertex n = 16;
  Hdt dc(n);
  for (Vertex i = 0; i < n; ++i) dc.add_edge(i, (i + 1) % n);
  for (Vertex i = 0; i < n - 1; ++i) {
    dc.remove_edge(i, (i + 1) % n);
    // 0 and n/2 stay connected through the back arc i+1..15..0 as long as
    // every edge (j, j+1) with j >= n/2 is still present, i.e. i < n/2.
    EXPECT_EQ(dc.connected(0, n / 2), i + 1 < n / 2 + 1)
        << "after removing edge " << i;
    dc.check_invariants();
  }
}

// Lazy promotion (DESIGN.md §4.2): a level's push-up runs only when the
// smaller piece has a non-tree edge of that level to scan.

TEST(Hdt, CutBridgeLiftsCliqueSideTreeAndNonTreeEdges) {
  // Clique on 0..3 (tree edges 0-1, 0-2, 0-3; non-tree 1-2, 1-3, 2-3),
  // joined by the bridge 0-4 to the path 4..31.
  const Vertex n = 32;
  Hdt dc(n, /*sampling=*/false);
  std::vector<Edge> clique;
  for (Vertex a = 0; a < 4; ++a)
    for (Vertex b = a + 1; b < 4; ++b) {
      dc.add_edge(a, b);
      clique.emplace_back(a, b);
    }
  for (Vertex v = 4; v + 1 < n; ++v) dc.add_edge(v, v + 1);
  dc.add_edge(0, 4);
  ASSERT_TRUE(dc.is_spanning(0, 4));

  EXPECT_TRUE(dc.remove_edge(0, 4).performed);
  EXPECT_FALSE(dc.connected(0, 4));
  for (const Edge& e : clique)
    EXPECT_EQ(dc.edge_level(e.u, e.v), 1) << e.u << "-" << e.v;
  for (Vertex v = 4; v + 1 < n; ++v) EXPECT_EQ(dc.edge_level(v, v + 1), 0);
  dc.check_invariants();
}

TEST(Hdt, CutBridgeWithTreeSideKeepsEveryLevelZero) {
  // Star 0..3 (a tree) bridged by 0-4 to the ring 4..31, whose non-tree
  // edge lives only in the larger piece. Each cut skips level 0.
  const Vertex n = 32;
  Hdt dc(n, /*sampling=*/false);
  std::vector<Edge> edges;
  for (Vertex v = 1; v < 4; ++v) edges.emplace_back(0, v);
  for (Vertex v = 4; v < n; ++v) edges.emplace_back(v, v + 1 < n ? v + 1 : 4);
  for (const Edge& e : edges) dc.add_edge(e.u, e.v);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(dc.add_edge(0, 4).spanning);
    EXPECT_TRUE(dc.remove_edge(0, 4).performed);
    EXPECT_FALSE(dc.connected(0, 4));
    for (const Edge& e : edges)
      EXPECT_EQ(dc.edge_level(e.u, e.v), 0) << e.u << "-" << e.v;
    dc.check_invariants();
  }
}

// ---------------------------------------------------------------------------
// Randomized oracle comparison (the workhorse correctness test)
// ---------------------------------------------------------------------------

struct OracleParam {
  uint64_t seed;
  bool sampling;
};

class HdtOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(HdtOracle, MatchesStaticRecomputation) {
  const auto [seed, sampling] = GetParam();
  Xoshiro256 rng(seed);
  const Vertex n = 48;
  Hdt dc(n, sampling);
  std::set<Edge> edges;

  auto oracle = [&] {
    return connected_components(n, {edges.begin(), edges.end()});
  };

  ComponentInfo cc = oracle();
  for (int step = 0; step < 3000; ++step) {
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 4) {  // add
      const Vertex a = static_cast<Vertex>(rng.next_below(n));
      const Vertex b = static_cast<Vertex>(rng.next_below(n));
      if (a == b) continue;
      const bool did = dc.add_edge(a, b).performed;
      EXPECT_EQ(did, edges.insert(Edge(a, b)).second);
      cc = oracle();
    } else if (action < 7 && !edges.empty()) {  // remove
      auto it = edges.begin();
      std::advance(it, rng.next_below(edges.size()));
      EXPECT_TRUE(dc.remove_edge(it->u, it->v).performed);
      edges.erase(it);
      cc = oracle();
    } else {  // query
      const Vertex a = static_cast<Vertex>(rng.next_below(n));
      const Vertex b = static_cast<Vertex>(rng.next_below(n));
      EXPECT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b])
          << "step " << step << " (" << a << "," << b << ")";
    }
    if (step % 500 == 0) dc.check_invariants();
  }
  // Exhaustive final agreement.
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; b += 3)
      EXPECT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b]);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HdtOracle,
    ::testing::Values(OracleParam{11, true}, OracleParam{12, true},
                      OracleParam{13, true}, OracleParam{14, false},
                      OracleParam{15, false}, OracleParam{99, true},
                      OracleParam{100, false}));

// Decremental teardown of a whole generated graph vs oracle.
class HdtDecremental : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HdtDecremental, FullTeardownAgreesWithOracle) {
  Graph g = gen::erdos_renyi(40, 120, GetParam());
  Hdt dc(g.num_vertices());
  for (const Edge& e : g.edges()) dc.add_edge(e.u, e.v);
  std::vector<Edge> order = g.edges();
  Xoshiro256 rng(GetParam() ^ 0xabcdef);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  std::set<Edge> remaining(order.begin(), order.end());
  for (const Edge& e : order) {
    EXPECT_TRUE(dc.remove_edge(e.u, e.v).performed);
    remaining.erase(e);
    auto cc = connected_components(g.num_vertices(),
                                   {remaining.begin(), remaining.end()});
    for (Vertex a = 0; a < g.num_vertices(); a += 7)
      for (Vertex b = a + 1; b < g.num_vertices(); b += 11)
        ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b]);
  }
  dc.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HdtDecremental, ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace condyn
