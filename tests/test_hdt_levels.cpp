// Tests for the HDT level skeleton (core/hdt_levels.hpp) under both engines:
// Hdt (coarse and fine-grained variants) and NbHdt in its three lock modes.
// They pin what the skeleton owns: lazy promotion, the tree-arc promotion
// loop, lazily created level forests, and the invariant checks.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/hdt.hpp"
#include "core/nb_hdt.hpp"
#include "graph/cc.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

/// Hdt with NbHdt's bool-returning updates, so one test body drives both.
struct HdtEngine : Hdt {
  explicit HdtEngine(Vertex n, bool sampling = true) : Hdt(n, sampling) {}
  bool add_edge(Vertex u, Vertex v) { return Hdt::add_edge(u, v).performed; }
  bool remove_edge(Vertex u, Vertex v) {
    return Hdt::remove_edge(u, v).performed;
  }
};

template <NbLockMode M>
struct NbEngine : NbHdt {
  explicit NbEngine(Vertex n, bool sampling = true) : NbHdt(n, M, sampling) {}
};

using Engines =
    ::testing::Types<HdtEngine, NbEngine<NbLockMode::kFine>,
                     NbEngine<NbLockMode::kCoarseSpin>,
                     NbEngine<NbLockMode::kCoarseElision>>;

struct EngineNames {
  template <typename T>
  static std::string GetName(int i) {
    static const char* const kNames[] = {"hdt", "nb_fine", "nb_coarse",
                                         "nb_elision"};
    return kNames[i];
  }
};

template <typename T>
class HdtEngines : public ::testing::Test {};
TYPED_TEST_SUITE(HdtEngines, Engines, EngineNames);

TYPED_TEST(HdtEngines, LevelsRiseUnderChurnWithinBounds) {
  const Vertex n = 32;
  TypeParam dc(n);
  std::set<Edge> present;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; b += 1 + a % 3) {
      dc.add_edge(a, b);
      present.insert(Edge(a, b));
    }
  Xoshiro256 rng(7);
  std::vector<Edge> edges(present.begin(), present.end());
  for (int round = 0; round < 200; ++round) {
    const Edge& e = edges[rng.next_below(edges.size())];
    if (present.count(e) != 0u) {
      dc.remove_edge(e.u, e.v);
      present.erase(e);
    } else {
      dc.add_edge(e.u, e.v);
      present.insert(e);
    }
    const int lvl = dc.edge_level(e.u, e.v);
    EXPECT_LE(lvl, dc.max_level());
  }
  dc.check_invariants();
  // Cross-check final connectivity against a static oracle.
  const ComponentInfo cc = connected_components(
      n, std::vector<Edge>(present.begin(), present.end()));
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; b += 3)
      EXPECT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b]);
}

// Lazy promotion (DESIGN.md §4.2): a level's push-up runs only when the
// smaller piece has a non-tree edge of that level to scan.

TYPED_TEST(HdtEngines, CutBridgeLiftsCliqueSideTreeAndNonTreeEdges) {
  // Clique on 0..3 (tree edges 0-1, 0-2, 0-3; non-tree 1-2, 1-3, 2-3),
  // joined by the bridge 0-4 to the path 4..31.
  const Vertex n = 32;
  TypeParam dc(n, /*sampling=*/false);
  std::vector<Edge> clique;
  for (Vertex a = 0; a < 4; ++a)
    for (Vertex b = a + 1; b < 4; ++b) {
      dc.add_edge(a, b);
      clique.emplace_back(a, b);
    }
  for (Vertex v = 4; v + 1 < n; ++v) dc.add_edge(v, v + 1);
  dc.add_edge(0, 4);
  ASSERT_TRUE(dc.is_spanning(0, 4));

  EXPECT_TRUE(dc.remove_edge(0, 4));
  EXPECT_FALSE(dc.connected(0, 4));
  for (const Edge& e : clique)
    EXPECT_EQ(dc.edge_level(e.u, e.v), 1) << e.u << "-" << e.v;
  for (Vertex v = 4; v + 1 < n; ++v) EXPECT_EQ(dc.edge_level(v, v + 1), 0);
  dc.check_invariants();
}

TYPED_TEST(HdtEngines, LevelOneForestFillsPastItsArcMapPresize) {
  // kCycles rings of kRing vertices, each hung off hub 0 by one bridge.
  // Cutting a bridge lifts its ring's tree edges and chord to level 1, and
  // re-adding it keeps them there: F_1 ends with kCycles * (kRing - 1)
  // arc pairs, past the n >> 1 its arc map was sized for (most of the
  // map's shards grow a segment).
  constexpr Vertex kCycles = 240, kRing = 16, kHub = 0;
  const Vertex n = kCycles * kRing + 1;
  TypeParam dc(n);
  auto ring = [](Vertex c, Vertex i) { return 1 + c * kRing + i; };
  for (Vertex c = 0; c < kCycles; ++c) {
    for (Vertex i = 0; i + 1 < kRing; ++i)
      dc.add_edge(ring(c, i), ring(c, i + 1));
    dc.add_edge(ring(c, 0), ring(c, kRing - 1));  // chord: non-spanning
    dc.add_edge(ring(c, kRing - 1), kHub);
  }
  for (Vertex c = 0; c < kCycles; ++c) {
    ASSERT_TRUE(dc.remove_edge(ring(c, kRing - 1), kHub));
    ASSERT_FALSE(dc.connected(ring(c, 0), kHub));
    ASSERT_TRUE(dc.add_edge(ring(c, kRing - 1), kHub));
  }
  Vertex level1_pairs = 0;
  for (Vertex c = 0; c < kCycles; ++c)
    for (Vertex i = 0; i + 1 < kRing; ++i)
      if (dc.is_spanning(ring(c, i), ring(c, i + 1)) &&
          dc.edge_level(ring(c, i), ring(c, i + 1)) >= 1)
        ++level1_pairs;
  EXPECT_GT(level1_pairs, n >> 1);
  dc.check_invariants();  // every spanning edge is in F_0..F_level
  for (Vertex c = 0; c < kCycles; c += 7) {
    EXPECT_TRUE(dc.connected(ring(c, 3), kHub));
    EXPECT_EQ(dc.component_size(ring(c, 3)), n);
  }
  // The grown F_1 still serves cuts inside the rings: each is replaced at
  // level 1 by the chord.
  for (Vertex c = 0; c < kCycles; c += 5) {
    ASSERT_TRUE(dc.remove_edge(ring(c, 7), ring(c, 8)));
    EXPECT_TRUE(dc.connected(ring(c, 7), ring(c, 8)));
  }
  dc.check_invariants();
}

TYPED_TEST(HdtEngines, CutBridgeWithTreeSideKeepsEveryLevelZero) {
  // Star 0..3 (a tree) bridged by 0-4 to the ring 4..31, whose non-tree
  // edge lives only in the larger piece. Each cut skips level 0.
  const Vertex n = 32;
  TypeParam dc(n, /*sampling=*/false);
  std::vector<Edge> edges;
  for (Vertex v = 1; v < 4; ++v) edges.emplace_back(0, v);
  for (Vertex v = 4; v < n; ++v) edges.emplace_back(v, v + 1 < n ? v + 1 : 4);
  for (const Edge& e : edges) dc.add_edge(e.u, e.v);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(dc.add_edge(0, 4));
    ASSERT_TRUE(dc.is_spanning(0, 4));
    EXPECT_TRUE(dc.remove_edge(0, 4));
    EXPECT_FALSE(dc.connected(0, 4));
    for (const Edge& e : edges)
      EXPECT_EQ(dc.edge_level(e.u, e.v), 0) << e.u << "-" << e.v;
    dc.check_invariants();
  }
}

}  // namespace
}  // namespace condyn
