// Concurrency stress tests: linearizable lock-free reads under a churning
// writer (including the Appendix-A adversarial pattern), multi-writer
// fine-grained updates on disjoint components, and full mixed stress for the
// non-blocking algorithm with a final-state oracle check.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/ett.hpp"
#include "core/nb_hdt.hpp"
#include "graph/cc.hpp"
#include "harness/workload.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

// ---------------------------------------------------------------------------
// Single-writer ETT: lock-free readers vs one writer
// ---------------------------------------------------------------------------

TEST(EttConcurrent, ReadersNeverSeePhantomSplitsOrMerges) {
  // Component {0..3} is a stable path; component {4..7} too. The writer
  // churns an internal edge of each component (remove + re-add), which
  // exercises split/merge restructuring. Readers must always see 0~3
  // connected and 0!~4, despite the writer being mid-operation.
  ett::Forest f(8);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  f.link(4, 5);
  f.link(5, 6);
  f.link(6, 7);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // The writer churns 1-2 and 5-6. Pairs joined by a *never-cut*
        // edge stay connected at every linearization point; pairs in
        // different original components must never appear merged, even
        // mid-restructure (the out-of-thin-air problem of Fig. 1).
        EXPECT_TRUE(f.connected(0, 1));
        EXPECT_TRUE(f.connected(2, 3));
        EXPECT_TRUE(f.connected(4, 5));
        EXPECT_TRUE(f.connected(6, 7));
        EXPECT_FALSE(f.connected(0, 4));
        EXPECT_FALSE(f.connected(3, 7));
        EXPECT_FALSE(f.connected(1, 6));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < 20000; ++i) {
    f.cut(1, 2);
    // 0-1 and 2-3 remain intact; only 0~2 type pairs change, which no
    // reader asserts on. Re-link immediately.
    f.link(1, 2);
    f.cut(5, 6);
    f.link(5, 6);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
}

TEST(EttConcurrent, AppendixAPattern) {
  // The Appendix-A counter-example shape: u and v hang off w, and the edge
  // (w, r) is removed and re-added in a tight loop. u and v are *always*
  // connected (through w); a connectivity check that omitted the fifth
  // find_root could report false during the churn.
  ett::Forest f(4);
  const Vertex u = 0, v = 1, w = 2, r = 3;
  f.link(u, w);
  f.link(v, w);
  f.link(w, r);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_TRUE(f.connected(u, v));
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 50000; ++i) {
    f.cut(w, r);
    f.link(w, r);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(checks.load(), 1000u);
}

// ---------------------------------------------------------------------------
// Invariant-pair stress: every variant, updates churn chords of two cliques
// whose Hamiltonian cycles are never touched — within-clique connectivity
// must always read true, cross-clique always false.
// ---------------------------------------------------------------------------

class VariantStress : public ::testing::TestWithParam<int> {};

TEST_P(VariantStress, TwoCliquesInvariantUnderChurn) {
  const Vertex kCliqueSize = 12;
  const Vertex n = 2 * kCliqueSize;
  auto dc = make_variant(GetParam(), n);

  // Protected Hamiltonian cycles (never removed).
  for (Vertex c = 0; c < 2; ++c) {
    const Vertex base = c * kCliqueSize;
    for (Vertex i = 0; i < kCliqueSize; ++i)
      dc->add_edge(base + i, base + (i + 1) % kCliqueSize);
  }

  std::atomic<bool> stop{false};
  const unsigned kUpdaters = 2;
  const unsigned kReaders = 2;
  std::vector<std::thread> threads;

  for (unsigned t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Vertex c = static_cast<Vertex>(rng.next_below(2));
        const Vertex base = c * kCliqueSize;
        Vertex a = base + static_cast<Vertex>(rng.next_below(kCliqueSize));
        Vertex b = base + static_cast<Vertex>(rng.next_below(kCliqueSize));
        if (a == b) continue;
        // Skip cycle edges so the protected backbone stays intact.
        const Vertex lo = std::min(a, b) - base, hi = std::max(a, b) - base;
        if (hi - lo == 1 || (lo == 0 && hi == kCliqueSize - 1)) continue;
        if (rng.next_below(2) == 0) {
          dc->add_edge(a, b);
        } else {
          dc->remove_edge(a, b);
        }
      }
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(2000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Vertex a = static_cast<Vertex>(rng.next_below(kCliqueSize));
        const Vertex b = static_cast<Vertex>(rng.next_below(kCliqueSize));
        ASSERT_TRUE(dc->connected(a, b));
        ASSERT_TRUE(dc->connected(kCliqueSize + a, kCliqueSize + b));
        ASSERT_FALSE(dc->connected(a, kCliqueSize + b));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantStress,
                         ::testing::Range(1, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n = all_variants()[info.param - 1].name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// Full algorithm: mixed multi-writer stress with a final-state oracle
// ---------------------------------------------------------------------------

class NbStress : public ::testing::TestWithParam<NbLockMode> {};

TEST_P(NbStress, MixedChurnEndsConsistent) {
  const Vertex n = 40;
  NbHdt dc(n, GetParam());
  const unsigned kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};

  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(77 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Vertex a = static_cast<Vertex>(rng.next_below(n));
        Vertex b = static_cast<Vertex>(rng.next_below(n));
        if (a == b) b = (b + 1) % n;
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            dc.add_edge(a, b);
            break;
          case 2:
            dc.remove_edge(a, b);
            break;
          default:
            dc.connected(a, b);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // Quiescent: structural invariants hold and connectivity agrees with a
  // static recomputation from the surviving edge set.
  dc.check_invariants();
  std::vector<Edge> present;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      if (dc.has_edge(a, b)) present.emplace_back(a, b);
  const ComponentInfo cc = connected_components(n, present);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b])
          << a << "-" << b;
}

TEST_P(NbStress, ConcurrentSameEdgeAddersAgree) {
  // All threads fight over the same small edge set; per-edge status words
  // must serialize them (IN_PROGRESS / INITIAL joining), never duplicating
  // or losing an edge.
  const Vertex n = 6;
  NbHdt dc(n, GetParam());
  const unsigned kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(5 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Vertex a = static_cast<Vertex>(rng.next_below(n));
        Vertex b = static_cast<Vertex>(rng.next_below(n));
        if (a == b) continue;
        if (rng.next_below(2) == 0) {
          dc.add_edge(a, b);
        } else {
          dc.remove_edge(a, b);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  dc.check_invariants();
  std::vector<Edge> present;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      if (dc.has_edge(a, b)) present.emplace_back(a, b);
  const ComponentInfo cc = connected_components(n, present);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b]);
}

TEST_P(NbStress, ReplacementProposalRace) {
  // Distills the §4.4 conflict: one thread repeatedly removes the bridge of
  // a dumbbell (two triangles joined by one edge) while others insert /
  // erase the only other possible cross edge. Readers pin the invariant
  // that each side stays internally connected.
  //   0-1-2 (triangle)   3-4-5 (triangle)   bridge 2-3, rival 0-5
  const Vertex n = 6;
  NbHdt dc(n, GetParam());
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5},
                      {3, 5}}) {
    dc.add_edge(static_cast<Vertex>(a), static_cast<Vertex>(b));
  }
  dc.add_edge(2, 3);

  std::atomic<bool> stop{false};
  std::thread bridge_churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      dc.remove_edge(2, 3);
      dc.add_edge(2, 3);
    }
  });
  std::thread rival_churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      dc.add_edge(0, 5);
      dc.remove_edge(0, 5);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(dc.connected(0, 2));
      ASSERT_TRUE(dc.connected(3, 5));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  bridge_churner.join();
  rival_churner.join();
  reader.join();

  dc.check_invariants();
  std::vector<Edge> present;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      if (dc.has_edge(a, b)) present.emplace_back(a, b);
  const ComponentInfo cc = connected_components(n, present);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b]);
}

INSTANTIATE_TEST_SUITE_P(Modes, NbStress,
                         ::testing::Values(NbLockMode::kFine,
                                           NbLockMode::kCoarseSpin,
                                           NbLockMode::kCoarseElision),
                         [](const ::testing::TestParamInfo<NbLockMode>& i) {
                           switch (i.param) {
                             case NbLockMode::kFine:
                               return "fine";
                             case NbLockMode::kCoarseSpin:
                               return "coarse";
                             default:
                               return "elision";
                           }
                         });

// ---------------------------------------------------------------------------
// Relaxed-ordering oracle, pinned to the zipfian stream: the memory-order
// audit downgraded the parent/version hot path to acquire/release
// (DESIGN.md §7.3). The zipfian mix hammers a hot edge set — the regime in
// which a too-weak ordering would let a stale version/parent snapshot
// linearize a wrong answer or corrupt the structure. Quiescent oracle as in
// MixedChurnEndsConsistent, driven by the real generator.
// ---------------------------------------------------------------------------

TEST(NbConcurrent, ZipfianChurnMatchesOracle) {
  const Vertex n = 48;
  std::vector<Edge> edges;
  Xoshiro256 gen(5);
  for (Vertex v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  for (int i = 0; i < 80; ++i) {
    const Vertex a = static_cast<Vertex>(gen.next_below(n));
    Vertex b = static_cast<Vertex>(gen.next_below(n));
    if (a == b) b = (b + 1) % n;
    edges.emplace_back(a, b);
  }
  const Graph g(n, std::move(edges));

  NbHdt dc(n, NbLockMode::kFine);
  const unsigned kThreads = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // 40% reads, heavy update share on the Zipf-hot edges; all threads
      // share the popularity permutation (base seed), so they collide on
      // the same hot set by construction.
      harness::ZipfianOpStream stream(g, 40, /*base_seed=*/21, t);
      Op op;
      for (int i = 0; i < 30000; ++i) {
        ASSERT_TRUE(stream.next(op));
        switch (op.kind) {
          case OpKind::kAdd:
            dc.add_edge(op.u, op.v);
            break;
          case OpKind::kRemove:
            dc.remove_edge(op.u, op.v);
            break;
          case OpKind::kConnected:
            dc.connected(op.u, op.v);
            break;
          default:
            break;  // the zipfian stream emits no value queries
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  dc.check_invariants();
  std::vector<Edge> present;
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      if (dc.has_edge(a, b)) present.emplace_back(a, b);
  const ComponentInfo cc = connected_components(n, present);
  for (Vertex a = 0; a < n; ++a)
    for (Vertex b = a + 1; b < n; ++b)
      ASSERT_EQ(dc.connected(a, b), cc.label[a] == cc.label[b])
          << a << "-" << b;
}

// ---------------------------------------------------------------------------
// Fine-grained parallelism: writers on disjoint components proceed together
// ---------------------------------------------------------------------------

TEST(FineGrainedConcurrent, DisjointComponentWritersMakeProgress) {
  const Vertex kBlock = 64;
  const unsigned kWriters = 4;
  const Vertex n = kBlock * kWriters;
  auto dc = make_variant(9, n);  // "full" (fine-grained)

  std::vector<std::thread> writers;
  std::atomic<uint64_t> total_ops{0};
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const Vertex base = w * kBlock;
      Xoshiro256 rng(w);
      uint64_t ops = 0;
      for (int round = 0; round < 300; ++round) {
        // Build a path, then tear half of it down again — all within this
        // writer's private block, so component locks never collide.
        for (Vertex i = 0; i + 1 < kBlock; ++i) {
          dc->add_edge(base + i, base + i + 1);
          ++ops;
        }
        for (Vertex i = 0; i + 1 < kBlock; i += 2) {
          dc->remove_edge(base + i, base + i + 1);
          ++ops;
        }
        for (Vertex i = 0; i + 1 < kBlock; i += 2) {
          dc->add_edge(base + i, base + i + 1);
          ++ops;
        }
      }
      total_ops.fetch_add(ops);
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(total_ops.load(), 0u);
  // Every block ends fully connected internally, blocks stay separate.
  for (unsigned w = 0; w < kWriters; ++w) {
    const Vertex base = w * kBlock;
    EXPECT_TRUE(dc->connected(base, base + kBlock - 1));
    if (w > 0) {
      EXPECT_FALSE(dc->connected(0, base));
    }
  }
}

}  // namespace
}  // namespace condyn
