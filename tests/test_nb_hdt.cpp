// Tests for the full non-blocking algorithm (paper §4.4 + Appendix C) in all
// three lock modes: sequential semantics + oracle comparison, edge-status
// introspection, invariant preservation under churn.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/nb_hdt.hpp"
#include "graph/cc.hpp"
#include "graph/dsu.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

struct ModeParam {
  NbLockMode mode;
  const char* name;
};

class NbHdtModes : public ::testing::TestWithParam<ModeParam> {};

TEST_P(NbHdtModes, EmptyGraphDisconnected) {
  NbHdt dc(8, GetParam().mode);
  EXPECT_FALSE(dc.connected(0, 7));
  EXPECT_TRUE(dc.connected(3, 3));
  EXPECT_FALSE(dc.has_edge(0, 1));
  EXPECT_EQ(dc.edge_level(0, 1), -1);
}

TEST_P(NbHdtModes, AddRemoveSingleEdge) {
  NbHdt dc(4, GetParam().mode);
  EXPECT_TRUE(dc.add_edge(0, 1));
  EXPECT_TRUE(dc.connected(0, 1));
  EXPECT_TRUE(dc.is_spanning(0, 1));
  EXPECT_FALSE(dc.add_edge(1, 0));  // duplicate
  EXPECT_TRUE(dc.remove_edge(0, 1));
  EXPECT_FALSE(dc.connected(0, 1));
  EXPECT_FALSE(dc.remove_edge(0, 1));
  dc.check_invariants();
}

TEST_P(NbHdtModes, SelfLoopRejected) {
  NbHdt dc(4, GetParam().mode);
  EXPECT_FALSE(dc.add_edge(2, 2));
  EXPECT_FALSE(dc.remove_edge(2, 2));
}

TEST_P(NbHdtModes, NonSpanningAddAndRemove) {
  NbHdt dc(4, GetParam().mode);
  dc.add_edge(0, 1);
  dc.add_edge(1, 2);
  EXPECT_TRUE(dc.add_edge(0, 2));  // closes a triangle -> non-spanning
  EXPECT_FALSE(dc.is_spanning(0, 2));
  EXPECT_EQ(dc.edge_level(0, 2), 0);
  dc.check_invariants();
  EXPECT_TRUE(dc.remove_edge(0, 2));
  EXPECT_TRUE(dc.connected(0, 2));
  dc.check_invariants();
}

TEST_P(NbHdtModes, ReplacementOnSpanningRemoval) {
  NbHdt dc(4, GetParam().mode);
  dc.add_edge(0, 1);
  dc.add_edge(1, 2);
  dc.add_edge(0, 2);
  EXPECT_TRUE(dc.remove_edge(0, 1));
  EXPECT_TRUE(dc.connected(0, 1));  // reconnected through 0-2-1
  EXPECT_TRUE(dc.is_spanning(0, 2));
  EXPECT_FALSE(dc.has_edge(0, 1));
  dc.check_invariants();
}

TEST_P(NbHdtModes, ReAddAfterRemoveGetsFreshLife) {
  NbHdt dc(4, GetParam().mode);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(dc.add_edge(0, 1)) << round;
    EXPECT_TRUE(dc.remove_edge(0, 1)) << round;
  }
  EXPECT_FALSE(dc.connected(0, 1));
  dc.check_invariants();
}

TEST_P(NbHdtModes, RingTeardownKeepsFarSideConnected) {
  const Vertex n = 16;
  NbHdt dc(n, GetParam().mode);
  for (Vertex i = 0; i < n; ++i) dc.add_edge(i, (i + 1) % n);
  for (Vertex i = 0; i + 1 < n / 2; ++i) {
    EXPECT_TRUE(dc.remove_edge(i, i + 1));
    EXPECT_TRUE(dc.connected(0, n / 2)) << "after removing edge " << i;
    dc.check_invariants();
  }
}

TEST_P(NbHdtModes, LevelsRiseUnderChurnWithinBounds) {
  const Vertex n = 32;
  NbHdt dc(n, GetParam().mode);
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

TEST_P(NbHdtModes, CutBridgeLiftsCliqueSideTreeAndNonTreeEdges) {
  // Clique on 0..3 (tree edges 0-1, 0-2, 0-3; non-tree 1-2, 1-3, 2-3),
  // joined by the bridge 0-4 to the path 4..31.
  const Vertex n = 32;
  NbHdt dc(n, GetParam().mode, /*sampling=*/false);
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

TEST_P(NbHdtModes, LevelOneForestFillsPastItsArcMapPresize) {
  // kCycles rings of kRing vertices, each hung off hub 0 by one bridge.
  // Cutting a bridge lifts its ring's tree edges and chord to level 1, and
  // re-adding it keeps them there: F_1 ends with kCycles * (kRing - 1)
  // arc pairs, past the n >> 1 its arc map was sized for (most of the
  // map's shards grow a segment).
  constexpr Vertex kCycles = 240, kRing = 16, kHub = 0;
  const Vertex n = kCycles * kRing + 1;
  NbHdt dc(n, GetParam().mode);
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

TEST_P(NbHdtModes, CutBridgeWithTreeSideKeepsEveryLevelZero) {
  // Star 0..3 (a tree) bridged by 0-4 to the ring 4..31, whose non-tree
  // edge lives only in the larger piece. Each cut skips level 0.
  const Vertex n = 32;
  NbHdt dc(n, GetParam().mode, /*sampling=*/false);
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

TEST_P(NbHdtModes, SkippedLevelZeroSearchRacesNonBlockingAdds) {
  // Each round cuts the bridge 2-3 between the path 0-1-2 (the smaller
  // piece, no non-tree edge, so the level-0 search is skipped unless an
  // adder's flag raise is seen first) and the ring 3..15, while two threads
  // add without blocking: the crossing edge 0-9, which must end spanning
  // (the replacement, or a plain link after the cut), and the chord 5-12
  // inside the ring, which must end as a level-0 non-spanning edge. The
  // main thread reads concurrently: once 0-9's addition has returned, 0 and
  // 9 must read connected until the round ends.
  const Vertex n = 16;
  const Edge bridge(2, 3), cross(0, 9), chord(5, 12);
  NbHdt dc(n, GetParam().mode);
  std::vector<Edge> fixed{{0, 1}, {1, 2}};
  for (Vertex v = 3; v < n; ++v) fixed.emplace_back(v, v + 1 < n ? v + 1 : 3);
  for (const Edge& e : fixed) dc.add_edge(e.u, e.v);
  dc.add_edge(bridge.u, bridge.v);

  constexpr int kRounds = 4000;
  std::atomic<int> round{-1};
  std::atomic<int> finished{0};
  std::atomic<bool> cross_added{false};
  std::atomic<int> failed_ops{0};
  auto worker = [&](uint64_t seed, auto&& op) {
    Xoshiro256 rng(seed);
    for (int r = 0; r < kRounds; ++r) {
      while (round.load(std::memory_order_acquire) < r)
        std::this_thread::yield();
      // A random head start sweeps the three operations across each other.
      for (uint64_t spin = rng.next_below(256); spin > 0; --spin)
        std::atomic_signal_fence(std::memory_order_seq_cst);
      if (!op()) failed_ops.fetch_add(1);
      finished.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread cutter(worker, 1, [&] { return dc.remove_edge(bridge.u, bridge.v); });
  std::thread crosser(worker, 2, [&] {
    const bool ok = dc.add_edge(cross.u, cross.v);
    cross_added.store(true, std::memory_order_release);
    return ok;
  });
  std::thread chorder(worker, 3, [&] {
    return dc.add_edge(chord.u, chord.v);
  });

  int mismatches = 0;
  for (int r = 0; r < kRounds; ++r) {
    finished.store(0, std::memory_order_relaxed);
    cross_added.store(false, std::memory_order_relaxed);
    round.store(r, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 3) {
      const bool after_add = cross_added.load(std::memory_order_acquire);
      if (after_add && !dc.connected(cross.u, cross.v)) ++mismatches;
      if (!dc.connected(0, 1) || !dc.connected(chord.u, chord.v))
        ++mismatches;
      std::this_thread::yield();  // let descheduled workers in on a busy host
    }
    // Quiescent: the graph is the fixed edges plus 0-9 and 5-12.
    EXPECT_TRUE(dc.is_spanning(cross.u, cross.v)) << "round " << r;
    EXPECT_EQ(dc.edge_level(cross.u, cross.v), 0) << "round " << r;
    EXPECT_TRUE(dc.has_edge(chord.u, chord.v)) << "round " << r;
    EXPECT_FALSE(dc.is_spanning(chord.u, chord.v)) << "round " << r;
    EXPECT_EQ(dc.edge_level(chord.u, chord.v), 0) << "round " << r;
    Dsu oracle(n);
    for (const Edge& e : fixed) oracle.unite(e.u, e.v);
    oracle.unite(cross.u, cross.v);
    oracle.unite(chord.u, chord.v);
    for (Vertex a = 0; a < n; ++a)
      for (Vertex b = a + 1; b < n; ++b)
        if (dc.connected(a, b) != oracle.connected(a, b)) ++mismatches;
    dc.check_invariants();
    // Restore the bridge for the next round.
    ASSERT_TRUE(dc.remove_edge(cross.u, cross.v));
    ASSERT_TRUE(dc.remove_edge(chord.u, chord.v));
    ASSERT_TRUE(dc.add_edge(bridge.u, bridge.v));
  }
  cutter.join();
  crosser.join();
  chorder.join();
  EXPECT_EQ(failed_ops.load(), 0);
  EXPECT_EQ(mismatches, 0);
}

TEST_P(NbHdtModes, RandomizedOracleAgreement) {
  const Vertex n = 64;
  NbHdt dc(n, GetParam().mode);
  Xoshiro256 rng(GetParam().mode == NbLockMode::kFine ? 11 : 13);
  std::set<Edge> present;
  for (int op = 0; op < 3000; ++op) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    Vertex b = static_cast<Vertex>(rng.next_below(n));
    if (a == b) b = (b + 1) % n;
    const Edge e(a, b);
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(dc.add_edge(a, b), present.insert(e).second);
        break;
      case 1:
        EXPECT_EQ(dc.remove_edge(a, b), present.erase(e) != 0);
        break;
      default: {
        Dsu oracle(n);
        for (const Edge& pe : present) oracle.unite(pe.u, pe.v);
        EXPECT_EQ(dc.connected(a, b), oracle.connected(a, b)) << "op " << op;
      }
    }
    if (op % 500 == 0) dc.check_invariants();
  }
  dc.check_invariants();
}

TEST_P(NbHdtModes, DecrementalTeardownAgreesWithOracle) {
  Graph g = gen::erdos_renyi(48, 120, 99);
  NbHdt dc(48, GetParam().mode);
  for (const Edge& e : g.edges()) dc.add_edge(e.u, e.v);
  std::vector<Edge> remaining = g.edges();
  Xoshiro256 rng(3);
  while (!remaining.empty()) {
    const std::size_t i = rng.next_below(remaining.size());
    const Edge e = remaining[i];
    remaining[i] = remaining.back();
    remaining.pop_back();
    EXPECT_TRUE(dc.remove_edge(e.u, e.v));
    if (remaining.size() % 16 == 0) {
      dc.check_invariants();
      const ComponentInfo cc = connected_components(48, remaining);
      for (Vertex a = 0; a < 48; a += 5)
        for (Vertex b = a + 1; b < 48; b += 7)
          ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b])
              << remaining.size() << " edges left";
    }
  }
  for (Vertex v = 1; v < 48; ++v) EXPECT_FALSE(dc.connected(0, v));
}

TEST_P(NbHdtModes, DenseGraphMostlyNonSpanning) {
  // On a dense graph the structure must classify ~|E|-(n-1) edges as
  // non-spanning (the premise of the paper's §4.4 optimization).
  Graph g = gen::erdos_renyi(64, 512, 17);
  NbHdt dc(64, GetParam().mode);
  std::size_t spanning = 0;
  for (const Edge& e : g.edges()) {
    dc.add_edge(e.u, e.v);
    if (dc.is_spanning(e.u, e.v)) ++spanning;
  }
  EXPECT_LE(spanning, std::size_t{63});
  dc.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NbHdtModes,
    ::testing::Values(ModeParam{NbLockMode::kFine, "fine"},
                      ModeParam{NbLockMode::kCoarseSpin, "coarse"},
                      ModeParam{NbLockMode::kCoarseElision, "elision"}),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return info.param.name;
    });

TEST(NbDc, FacadeReportsNameAndSize) {
  NbDc dc(10, NbLockMode::kFine, "full");
  EXPECT_EQ(dc.name(), "full");
  EXPECT_EQ(dc.num_vertices(), 10u);
  EXPECT_TRUE(dc.add_edge(1, 2));
  EXPECT_TRUE(dc.connected(1, 2));
}

}  // namespace
}  // namespace condyn
