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
#include "util/ebr.hpp"
#include "util/node_pool.hpp"
#include "util/pool_stats.hpp"
#include "util/random.hpp"

namespace condyn {

/// Reaches the multiset cell pool (a friend of VertexMultiset).
class VertexMultisetTestPeer {
 public:
  /// Return the slabs whose cells all sit free to the OS, so that resident
  /// bytes measured next do not start on cells that earlier tests freed.
  /// Call only while no other thread uses the library.
  static void release_idle_cells() {
    ebr::Domain::global().drain();
    auto& pool = NodePool<VertexMultiset::Cell>::instance();
    pool.flush_local();
    pool.decay(0);
  }
};

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

// Lazy promotion (DESIGN.md §4.2): a level's push-up runs only when the
// smaller piece has a non-tree edge of that level to scan. Its
// single-threaded cases run on both engines in test_hdt_levels.cpp.

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

TEST_P(NbHdtModes, NonSpanningChurnPlateausResidentBytes) {
  // Two 12-vertex clusters, each held together by a fixed path and joined
  // by one bridge. Four threads toggle disjoint sets of intra-cluster
  // chords, which stay non-spanning; thread 0 also cuts and re-adds the
  // bridge every 64 ops, so the full replacement search lifts the smaller
  // cluster's chords to level 1. Every removed multiset cell must be
  // recycled: the pools' resident bytes after all the churn may exceed
  // those after its first 10% only by a fixed allowance, which covers the
  // retired cells EBR holds back while a preempted thread stays pinned.
  // Leaving removed cells marked but linked grows it by 7-10 MB here.
  constexpr Vertex kCluster = 12, n = 2 * kCluster;
  constexpr int kThreads = 4;
  constexpr int kOps = 200000;  // per thread: ~100,000 add/remove pairs
  constexpr int kWarmOps = kOps / 10;
  constexpr int64_t kAllowance = 4 << 20;
  const Edge bridge(kCluster - 1, kCluster);
  NbHdt dc(n, GetParam().mode);
  std::vector<Edge> fixed;
  std::vector<std::vector<Edge>> chords(kThreads);
  int next_owner = 0;
  for (Vertex base : {Vertex{0}, kCluster}) {
    for (Vertex a = base; a < base + kCluster; ++a) {
      for (Vertex b = a + 1; b < base + kCluster; ++b) {
        if (b == a + 1) {
          fixed.emplace_back(a, b);
        } else {
          chords[next_owner].emplace_back(a, b);
          next_owner = (next_owner + 1) % kThreads;
        }
      }
    }
  }
  for (const Edge& e : fixed) ASSERT_TRUE(dc.add_edge(e.u, e.v));
  ASSERT_TRUE(dc.add_edge(bridge.u, bridge.v));
  VertexMultisetTestPeer::release_idle_cells();

  std::atomic<int> warmed{0};
  std::atomic<bool> resume{false};
  std::atomic<int> failed_ops{0};
  std::atomic<bool> lifted{false};
  std::vector<std::vector<bool>> present(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 41);
      const std::vector<Edge>& mine = chords[t];
      std::vector<bool>& on = present[t];
      on.assign(mine.size(), false);
      for (int op = 0; op < kOps; ++op) {
        if (op == kWarmOps) {
          warmed.fetch_add(1);
          warmed.notify_one();
          resume.wait(false);
        }
        if (t == 0 && op % 64 == 63) {
          if (!dc.remove_edge(bridge.u, bridge.v)) failed_ops.fetch_add(1);
          if (!dc.add_edge(bridge.u, bridge.v)) failed_ops.fetch_add(1);
          for (std::size_t i = 0; i < mine.size(); ++i)
            if (on[i] && dc.edge_level(mine[i].u, mine[i].v) >= 1)
              lifted.store(true);
          continue;
        }
        const std::size_t i = rng.next_below(mine.size());
        const Edge& e = mine[i];
        const bool ok = on[i] ? dc.remove_edge(e.u, e.v)
                              : dc.add_edge(e.u, e.v);
        if (!ok) failed_ops.fetch_add(1);
        on[i] = !on[i];
      }
    });
  }
  for (int w = warmed.load(); w < kThreads; w = warmed.load()) warmed.wait(w);
  const int64_t warm_bytes = static_cast<int64_t>(pool_stats::resident_bytes());
  resume.store(true);
  resume.notify_all();
  for (auto& t : threads) t.join();
  const int64_t final_bytes = static_cast<int64_t>(pool_stats::resident_bytes());

  EXPECT_EQ(failed_ops.load(), 0);
  EXPECT_LE(final_bytes - warm_bytes, kAllowance)
      << "resident " << warm_bytes << " B after 10% of the churn, "
      << final_bytes << " B at the end";
  EXPECT_TRUE(lifted.load()) << "no chord of thread 0 ever left level 0";
  dc.check_invariants();
  Dsu oracle(n);
  for (const Edge& e : fixed) oracle.unite(e.u, e.v);
  oracle.unite(bridge.u, bridge.v);
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < chords[t].size(); ++i) {
      EXPECT_EQ(dc.has_edge(chords[t][i].u, chords[t][i].v), present[t][i]);
      if (present[t][i]) oracle.unite(chords[t][i].u, chords[t][i].v);
    }
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      EXPECT_EQ(dc.connected(a, b), oracle.connected(a, b)) << a << "-" << b;
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
