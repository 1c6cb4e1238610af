#include "core/edge_multiset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "util/ebr.hpp"
#include "util/pool_stats.hpp"
#include "util/random.hpp"

namespace condyn {

/// Counts the dead cells still linked into a multiset (a friend of
/// VertexMultiset). Only meaningful while no thread mutates the list.
class VertexMultisetTestPeer {
 public:
  static std::size_t dead_cells(const VertexMultiset& ms) {
    std::size_t dead = 0;
    for (VertexMultiset::Cell* c = ms.head_.load(); c != nullptr;) {
      VertexMultiset::Cell* nx = c->next.load();
      if (VertexMultiset::marked(nx)) ++dead;
      c = VertexMultiset::strip(nx);
    }
    return dead;
  }
};

namespace {

std::vector<Vertex> contents(const VertexMultiset& ms) {
  std::vector<Vertex> out;
  auto guard = ebr::pin();
  ms.for_each([&](Vertex v) {
    out.push_back(v);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VertexMultiset, StartsEmpty) {
  VertexMultiset ms;
  EXPECT_TRUE(contents(ms).empty());
  EXPECT_TRUE(ms.empty_hint());
}

TEST(VertexMultiset, AddAndIterate) {
  VertexMultiset ms;
  ms.add(3);
  ms.add(1);
  ms.add(2);
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(ms.approx_size(), 3u);
}

TEST(VertexMultiset, DuplicatesCoexist) {
  VertexMultiset ms;
  ms.add(7);
  ms.add(7);
  ms.add(7);
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{7, 7, 7}));
  EXPECT_TRUE(ms.remove_one(7));
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{7, 7}));
}

TEST(VertexMultiset, RemoveMissingFails) {
  VertexMultiset ms;
  ms.add(1);
  EXPECT_FALSE(ms.remove_one(2));
  EXPECT_TRUE(ms.remove_one(1));
  EXPECT_FALSE(ms.remove_one(1));
  EXPECT_TRUE(contents(ms).empty());
}

TEST(VertexMultiset, EarlyStopIteration) {
  VertexMultiset ms;
  for (Vertex v = 0; v < 10; ++v) ms.add(v);
  int seen = 0;
  auto guard = ebr::pin();
  ms.for_each([&](Vertex) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(VertexMultiset, RemovalDuringIterationIsSafe) {
  VertexMultiset ms;
  for (Vertex v = 0; v < 20; ++v) ms.add(v);
  auto guard = ebr::pin();
  std::vector<Vertex> seen;
  ms.for_each([&](Vertex v) {
    seen.push_back(v);
    ms.remove_one(v);  // removing the visited element must not derail
    return true;
  });
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_TRUE(contents(ms).empty());
}

TEST(VertexMultiset, AddRemoveCyclesRecycleCells) {
  // Every cycle's cell goes in front of the long-lived one and is removed
  // again; each removed cell must be unlinked and recycled, so the cycles
  // run on a bounded set of cells (EBR holds back a few hundred retired
  // ones) instead of taking a fresh cell each.
  constexpr uint64_t kTwoSlabs = 512;
  VertexMultiset ms;
  ms.add(1);
  const pool_stats::Counters before = pool_stats::local();
  for (int i = 0; i < 100000; ++i) {
    ms.add(2);
    ASSERT_TRUE(ms.remove_one(2));
  }
  const pool_stats::Counters& after = pool_stats::local();
  if (pool_stats::pooling_enabled()) {
    EXPECT_LE(after.pool_fresh - before.pool_fresh, kTwoSlabs);
  } else {
    // DC_POOL=0: every cell is a counted new/delete; the cells still
    // allocated must stay as few.
    EXPECT_LE((after.allocator_calls - before.allocator_calls) -
                  (after.allocator_frees - before.allocator_frees),
              kTwoSlabs);
  }
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{1}));
  EXPECT_EQ(VertexMultisetTestPeer::dead_cells(ms), 0u);
}

TEST(VertexMultiset, RemoveUnlinksInteriorCell) {
  VertexMultiset ms;
  for (Vertex v = 0; v < 5; ++v) ms.add(v);
  EXPECT_TRUE(ms.remove_one(2));  // reached through a live cell's next
  EXPECT_TRUE(ms.remove_one(4));  // reached through the head
  EXPECT_TRUE(ms.remove_one(0));  // the last cell
  EXPECT_EQ(VertexMultisetTestPeer::dead_cells(ms), 0u);  // before any walk
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{1, 3}));
}

TEST(VertexMultisetStress, ConcurrentAddRemoveBalances) {
  // Producers add k copies of their id, consumers remove them; afterwards
  // the multiset must hold exactly the never-removed sentinel values.
  constexpr unsigned kProducers = 4;
  constexpr int kPerProducer = 5000;
  VertexMultiset ms;
  ms.add(999999);  // sentinel that must survive

  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) ms.add(p);
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();

  std::atomic<int> removed{0};
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      int mine = 0;
      while (mine < kPerProducer) {
        if (ms.remove_one(p)) ++mine;
      }
      removed.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(removed.load(), static_cast<int>(kProducers) * kPerProducer);
  EXPECT_EQ(contents(ms), (std::vector<Vertex>{999999}));
}

TEST(VertexMultisetStress, ScanWhileMutating) {
  // A scanner continuously iterates while mutators churn; every value the
  // scanner reports must be one that was inserted at some point (no torn
  // cells), and scans terminate.
  VertexMultiset ms;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};

  std::thread scanner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto guard = ebr::pin();
      ms.for_each([&](Vertex v) {
        EXPECT_LT(v, 64u);
        return true;
      });
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> mutators;
  for (int m = 0; m < 3; ++m) {
    mutators.emplace_back([&, m] {
      for (int i = 0; i < 20000; ++i) {
        const Vertex v = static_cast<Vertex>((i * 7 + m * 13) % 64);
        ms.add(v);
        ms.remove_one(v);
      }
    });
  }
  for (auto& t : mutators) t.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_GT(scans.load(), 0u);
}

TEST(VertexMultisetStress, ChurnLeavesNoDeadCellAfterAWalk) {
  // Adders, removers and scanners race on one list, the scanners removing
  // values from inside their visit as the replacement searches do. A
  // removal whose own unlink CAS loses a race leaves its cell to later
  // walks; once the threads are done, a single walk must unlink every dead
  // cell that is left.
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  constexpr Vertex kValues = 16;
  VertexMultiset ms;
  for (Vertex v = 0; v < kValues; ++v) ms.add(100 + v);  // never removed
  std::atomic<int64_t> net{0};  // adds minus successful removes
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) + 1);
      int64_t mine = 0;
      for (int i = 0; i < kOps; ++i) {
        const Vertex v = static_cast<Vertex>(rng.next_below(kValues));
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            ms.add(v);
            ++mine;
            break;
          case 2:
            if (ms.remove_one(v)) --mine;
            break;
          default:
            ms.for_each([&](Vertex w) {
              if (w != v) return true;
              if (ms.remove_one(w)) --mine;
              return false;
            });
        }
      }
      net.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();

  const std::vector<Vertex> live = contents(ms);
  EXPECT_EQ(VertexMultisetTestPeer::dead_cells(ms), 0u);
  EXPECT_EQ(static_cast<int64_t>(live.size()),
            static_cast<int64_t>(kValues) + net.load());
  for (Vertex v = 0; v < kValues; ++v)
    EXPECT_EQ(std::count(live.begin(), live.end(), 100 + v), 1) << v;
  EXPECT_EQ(ms.approx_size(), live.size());
}

}  // namespace
}  // namespace condyn
