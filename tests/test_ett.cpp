// Unit + property tests for the single-writer Euler Tour Tree (paper §3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/ett.hpp"
#include "graph/dsu.hpp"
#include "util/random.hpp"

namespace condyn::ett {

/// Reads a forest's arc map (a friend of Forest).
class ForestTestPeer {
 public:
  static std::size_t arc_segments(const Forest& f) {
    return f.arcs_.segments();
  }
  static std::size_t arc_capacity(const Forest& f) {
    return f.arcs_.capacity();
  }
};

namespace {

// --------------------------------------------------------------------------
// Basic single-threaded behaviour
// --------------------------------------------------------------------------

TEST(Ett, SingletonVerticesAreTheirOwnComponents) {
  Forest f(4);
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_TRUE(f.connected(2, 2));
  f.validate(0);
}

TEST(Ett, LinkConnectsAndCutDisconnects) {
  Forest f(4);
  f.link(0, 1);
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.has_edge(0, 1));
  EXPECT_TRUE(f.has_edge(1, 0));  // canonical
  EXPECT_FALSE(f.connected(0, 2));
  f.cut(0, 1);
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_FALSE(f.has_edge(0, 1));
}

TEST(Ett, PathAndStarShapes) {
  Forest f(8);
  // path 0-1-2-3
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  // star centered at 5
  f.link(5, 4);
  f.link(5, 6);
  f.link(5, 7);
  EXPECT_TRUE(f.connected(0, 3));
  EXPECT_TRUE(f.connected(4, 7));
  EXPECT_FALSE(f.connected(0, 4));
  f.validate(0);
  f.validate(5);

  f.cut(1, 2);  // middle of the path
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.connected(2, 3));
  EXPECT_FALSE(f.connected(0, 3));

  f.cut(5, 6);  // star leaf
  EXPECT_FALSE(f.connected(6, 4));
  EXPECT_TRUE(f.connected(4, 7));
  f.validate(0);
  f.validate(2);
  f.validate(5);
  f.validate(6);
}

TEST(Ett, TourIsAValidEulerTour) {
  Forest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(1, 3);
  f.link(3, 4);
  auto tour = f.tour(0);
  // Single-occurrence representation: |tour| = vertices + 2 * edges.
  EXPECT_EQ(tour.size(), 5u + 2u * 4u);
  // Each vertex node exactly once, each arc exactly once per direction.
  std::multiset<std::pair<Vertex, Vertex>> seen;
  for (const Node* n : tour) seen.insert({n->tail, n->head});
  for (Vertex v : {0, 1, 2, 3, 4})
    EXPECT_EQ(seen.count({v, v}), 1u) << "vertex " << v;
  for (auto [a, b] : std::vector<std::pair<Vertex, Vertex>>{
           {0, 1}, {1, 2}, {1, 3}, {3, 4}}) {
    EXPECT_EQ(seen.count({a, b}), 1u);
    EXPECT_EQ(seen.count({b, a}), 1u);
  }
  // Adjacency: consecutive tour elements share the walk structure: the walk
  // enters a vertex and leaves it. Verify the tour is a closed walk.
  // Reconstruct the walk: vertex node = first visit; arcs move the cursor.
  Vertex cursor = tour.front()->tail;
  for (const Node* n : tour) {
    if (n->is_vertex()) {
      EXPECT_EQ(n->tail, cursor);
    } else {
      EXPECT_EQ(n->tail, cursor);
      cursor = n->head;
    }
  }
  EXPECT_EQ(cursor, tour.front()->tail);  // closed
}

TEST(Ett, VersionBumpsOnEveryModification) {
  Forest f(4);
  Node* n0 = f.vertex_node(0);
  Node* n1 = f.vertex_node(1);
  const uint64_t v0 = n0->version.load();
  const uint64_t v1 = n1->version.load();
  f.link(0, 1);
  EXPECT_GT(n0->version.load() + n1->version.load(), v0 + v1);
  Node* root = find_root(n0);
  const uint64_t vr = root->version.load();
  f.cut(0, 1);
  EXPECT_GT(n0->version.load() + n1->version.load(), vr);
}

// A level-i forest presizes its arc map for n >> i pairs; nothing but the
// engines' usage bounds what it holds. Filled far past that (a spanning
// path, 8x the presize at level 3), the map must grow by segments and the
// tour stay intact.
TEST(Ett, UpperLevelArcMapGrowsPastItsPresize) {
  constexpr Vertex kN = 4096;
  constexpr int kLevel = 3;
  Forest f0(kN, 0);
  Forest f(kN, kLevel);
  for (Vertex v = 1; v < kN; ++v) {
    f0.link(v - 1, v);
    f.link(v - 1, v);
  }
  // Level 0 was sized for all of them; level 3 had to add segments, and
  // still ends smaller.
  EXPECT_GT(ForestTestPeer::arc_segments(f), ForestTestPeer::arc_segments(f0));
  EXPECT_LT(ForestTestPeer::arc_capacity(f), ForestTestPeer::arc_capacity(f0));
  for (Vertex v = 1; v < kN; ++v) ASSERT_TRUE(f.has_edge(v - 1, v)) << v;
  EXPECT_EQ(f.validate(0), kN + 2 * (kN - 1));
  EXPECT_EQ(f.component_vertices(kN - 1), kN);

  // Cut every 8th edge, then relink; the grown map serves both.
  for (Vertex v = 8; v < kN; v += 8) f.cut(v - 1, v);
  for (Vertex v = 8; v < kN; v += 8) {
    EXPECT_FALSE(f.has_edge(v - 1, v));
    EXPECT_FALSE(f.connected_writer(v - 1, v));
    EXPECT_EQ(f.validate(v), 8u + 2 * 7u);
  }
  for (Vertex v = 8; v < kN; v += 8) f.link(v - 1, v);
  for (Vertex v = 1; v < kN; ++v) ASSERT_TRUE(f.has_edge(v - 1, v)) << v;
  EXPECT_EQ(f.validate(kN / 2), kN + 2 * (kN - 1));
}

// --------------------------------------------------------------------------
// Randomized oracle test: ETT vs incremental DSU rebuilt after each removal
// --------------------------------------------------------------------------

class EttRandomOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EttRandomOracle, MatchesOracleOnRandomForestOps) {
  const uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const Vertex n = 64;
  Forest f(n);
  std::set<Edge> forest_edges;

  auto oracle_connected = [&](Vertex a, Vertex b) {
    Dsu d(n);
    for (const Edge& e : forest_edges) d.unite(e.u, e.v);
    return d.connected(a, b);
  };

  for (int step = 0; step < 2000; ++step) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    const Vertex b = static_cast<Vertex>(rng.next_below(n));
    if (a == b) continue;
    const int action = static_cast<int>(rng.next_below(3));
    if (action == 0) {
      // try to link if in different components
      if (!oracle_connected(a, b)) {
        f.link(a, b);
        forest_edges.insert(Edge(a, b));
      }
    } else if (action == 1 && !forest_edges.empty()) {
      // cut a random existing forest edge
      auto it = forest_edges.begin();
      std::advance(it, rng.next_below(forest_edges.size()));
      f.cut(it->u, it->v);
      forest_edges.erase(it);
    } else {
      EXPECT_EQ(f.connected(a, b), oracle_connected(a, b))
          << "step " << step << " query " << a << "," << b;
    }
    if (step % 251 == 0) {
      for (Vertex v = 0; v < n; v += 7) f.validate(v);
    }
  }
  // Final: full pairwise agreement on a sample.
  for (Vertex a = 0; a < n; a += 3)
    for (Vertex b = a + 1; b < n; b += 5)
      EXPECT_EQ(f.connected(a, b), oracle_connected(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EttRandomOracle,
                         ::testing::Values(1, 2, 3, 42, 1234, 987654321));

// --------------------------------------------------------------------------
// Concurrent: single writer + readers, invariant-based checks
// --------------------------------------------------------------------------

// Two halves of the vertex set are never connected across; readers must
// never observe cross-half connectivity, while intra-half pairs that are
// permanently linked must always read connected.
TEST(EttConcurrent, ReadersNeverSeeOutOfThinAirComponents) {
  const Vertex n = 32;
  const Vertex half = n / 2;
  Forest f(n);
  // Permanent backbone in each half: 0-1 and half-(half+1).
  f.link(0, 1);
  f.link(half, half + 1);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    Xoshiro256 rng(7);
    std::set<Edge> edges;  // churning edges within each half, never across
    for (int i = 0; i < 60000 && !stop.load(std::memory_order_relaxed); ++i) {
      const bool left = rng.next_bool(0.5);
      const Vertex lo = left ? 2 : half + 2;  // avoid touching the backbone
      const Vertex hi = left ? half : n;
      const Vertex a = lo + static_cast<Vertex>(rng.next_below(hi - lo));
      const Vertex b = lo + static_cast<Vertex>(rng.next_below(hi - lo));
      if (a == b) continue;
      if (!f.connected_writer(a, b)) {
        f.link(a, b);
        edges.insert(Edge(a, b));
      } else if (!edges.empty()) {
        auto it = edges.begin();
        std::advance(it, rng.next_below(edges.size()));
        f.cut(it->u, it->v);
        edges.erase(it);
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        // Invariant 1: never connected across halves.
        const Vertex a = static_cast<Vertex>(rng.next_below(half));
        const Vertex b =
            half + static_cast<Vertex>(rng.next_below(half));
        if (f.connected(a, b)) failures.fetch_add(1);
        // Invariant 2: the permanent backbone edges always connected.
        if (!f.connected(0, 1)) failures.fetch_add(1);
        if (!f.connected(half, half + 1)) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace condyn::ett
