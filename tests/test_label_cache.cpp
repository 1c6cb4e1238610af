// Label-cache coverage (DESIGN.md §8): cached reads must be
// oracle-identical to the tree-walk reads they shortcut — sequentially,
// under concurrent churn racing the epoch invalidation, across a mid-run
// force-disable/re-enable of the whole cache, and under several writers
// relabelling small components (§8.2) — and components() snapshots must
// equal the DSU oracle on every variant, cache-backed or fallback.
// This file is part of the TSan CI set: the chain-collecting ascents are
// lock-free readers of the tour nodes' plain kind/tail fields, and the
// hit path races structural brackets by design.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/ett.hpp"
#include "core/label_cache.hpp"
#include "core/stats.hpp"
#include "graph/dsu.hpp"
#include "query_oracle.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

using condyn::testutil::QueryOracle;

std::vector<Op> churn_program(Vertex n, int len, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(len);
  for (int i = 0; i < len; ++i) {
    const Vertex a = static_cast<Vertex>(rng.next_below(n));
    const Vertex b = static_cast<Vertex>(rng.next_below(n));
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        ops.push_back(Op::add(a, b));
        break;
      case 3:
        ops.push_back(Op::remove(a, b));
        break;
      case 4:
        ops.push_back(Op::connected(a, b));
        break;
      case 5:
      case 6:
        ops.push_back(Op::component_size(a));
        break;
      default:
        ops.push_back(Op::representative(a));
    }
  }
  return ops;
}

std::vector<int> cache_variant_ids() {
  std::vector<int> ids;
  for (const VariantInfo& v : all_variants()) {
    if (v.caps.label_cache) ids.push_back(v.id);
  }
  return ids;
}

TEST(LabelCacheCaps, TheLockFreeReadFamiliesDeclareIt) {
  // (3) coarse-nbreads, (5) coarse-htm-nbreads, (8) fine-nbreads and the
  // whole NB family (9)-(11): exactly the variants whose read discipline the
  // cache's hit/fallback paths match.
  std::vector<std::string> names;
  for (const VariantInfo& v : all_variants()) {
    if (v.caps.label_cache) {
      EXPECT_TRUE(v.caps.lock_free_reads) << v.name;
      names.push_back(v.name);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "coarse-nbreads", "coarse-htm-nbreads", "fine-nbreads",
                       "full", "full-coarse", "full-coarse-htm"}));
}

// ---------------------------------------------------------------------------
// components() snapshots: every variant against the DSU oracle
// ---------------------------------------------------------------------------

TEST(ComponentsSnapshot, MatchesTheDsuOracleOnEveryVariant) {
  const Vertex n = 48;
  const std::vector<Op> program = churn_program(n, 600, 77);
  for (const VariantInfo& v : all_variants()) {
    auto dc = make_variant(v.id, n);
    QueryOracle oracle(n);
    for (const Op& op : program) {
      exec_single(*dc, op);
      oracle.apply(op);
    }
    Dsu dsu(n);
    for (const Edge& e : oracle.present()) dsu.unite(e.u, e.v);
    const ComponentsSnapshot snap = dc->components();
    ASSERT_EQ(snap.labels.size(), n) << v.name;
    for (Vertex x = 0; x < n; ++x) {
      EXPECT_EQ(snap.labels[x], dsu.representative(x))
          << v.name << " vertex " << x;
    }
    EXPECT_EQ(snap.num_components(), dsu.num_components()) << v.name;
    if (v.caps.label_cache && LabelCache::env_enabled()) {
      // At quiescence the cache path repairs every miss in place and the
      // final stamp check passes: the snapshot is the published epoch.
      EXPECT_TRUE(snap.consistent) << v.name;
    }
  }
}

TEST(ComponentsSnapshot, ConsistentUnderConcurrentChurn) {
  // A quiet path 0..9 beside churn on [10, n): every snapshot — consistent
  // (one published epoch) or fallback — must label the quiet component
  // exactly; consistent snapshots must additionally be internally coherent
  // for the churned half (same-label iff the snapshot says so, via the
  // label array being one epoch — spot-checked through the quiet set).
  const Vertex n = 64;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, n);
    for (Vertex x = 0; x + 1 < 10; ++x) dc->add_edge(x, x + 1);

    std::atomic<bool> stop{false};
    std::vector<std::thread> churn;
    for (unsigned w = 0; w < 2; ++w) {
      churn.emplace_back([&, w] {
        Xoshiro256 rng(1300 + w);
        while (!stop.load(std::memory_order_acquire)) {
          const Vertex a = 10 + static_cast<Vertex>(rng.next_below(n - 10));
          const Vertex b = 10 + static_cast<Vertex>(rng.next_below(n - 10));
          if (rng.next_below(2) == 0) {
            dc->add_edge(a, b);
          } else {
            dc->remove_edge(a, b);
          }
        }
      });
    }
    int consistent_seen = 0;
    for (int i = 0; i < 300; ++i) {
      const ComponentsSnapshot snap = dc->components();
      ASSERT_EQ(snap.labels.size(), n);
      consistent_seen += snap.consistent ? 1 : 0;
      if (snap.consistent) {
        for (Vertex x = 0; x < 10; ++x) {
          ASSERT_EQ(snap.labels[x], 0u)
              << "variant " << id << " snapshot " << i << " vertex " << x;
          ASSERT_TRUE(snap.same_component(0, x));
        }
      }
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : churn) t.join();
    (void)consistent_seen;  // under heavy churn every snapshot may fall back
  }
}

// ---------------------------------------------------------------------------
// Cached reads racing invalidation: per-region oracle exactness
// ---------------------------------------------------------------------------

TEST(LabelCacheConcurrent, CachedReadsMatchTheOracleUnderRacingInvalidation) {
  // Each worker owns a disjoint vertex region and interleaves updates with
  // queries, checking every query against its own sequential oracle. The
  // updates continually invalidate (or, via relinks, deliberately preserve)
  // the published epochs while the other workers' queries race the bracket
  // transitions: a hit that survives a stale epoch — or a publish that
  // captures a mid-restructure chain — returns a wrong value here.
  const Vertex kRegion = 20;
  const unsigned kWorkers = 4;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, kRegion * kWorkers);
    std::vector<std::vector<std::string>> errors(kWorkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        QueryOracle oracle(kRegion * kWorkers);
        std::vector<Op> program = churn_program(kRegion, 1200, 2600 + w);
        for (Op& op : program) {
          op.u += w * kRegion;
          op.v += w * kRegion;
        }
        for (std::size_t i = 0; i < program.size(); ++i) {
          const uint64_t expected = oracle.apply(program[i]);
          const uint64_t got = exec_single(*dc, program[i]);
          if (got != expected) {
            errors[w].push_back(
                "op " + std::to_string(i) + " kind " +
                std::to_string(static_cast<int>(program[i].kind)) + ": got " +
                std::to_string(got) + " want " + std::to_string(expected));
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    for (unsigned w = 0; w < kWorkers; ++w) {
      EXPECT_TRUE(errors[w].empty()) << "variant " << id << " worker " << w
                                     << ": " << errors[w].front();
    }
  }
}

TEST(LabelCacheConcurrent, BatchedReadsThroughTheCacheStayExact) {
  // The pure-read batch exemption routes query batches through
  // LabelCache::exec_query — same oracle discipline, batched submission.
  const Vertex kRegion = 16;
  const unsigned kWorkers = 3;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, kRegion * kWorkers);
    std::vector<std::vector<std::string>> errors(kWorkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        QueryOracle oracle(kRegion * kWorkers);
        Xoshiro256 rng(4400 + w);
        for (int round = 0; round < 120; ++round) {
          // A few updates through the single-op API...
          for (int j = 0; j < 4; ++j) {
            const Vertex a =
                w * kRegion + static_cast<Vertex>(rng.next_below(kRegion));
            const Vertex b =
                w * kRegion + static_cast<Vertex>(rng.next_below(kRegion));
            const Op op =
                rng.next_below(3) != 0 ? Op::add(a, b) : Op::remove(a, b);
            oracle.apply(op);
            exec_single(*dc, op);
          }
          // ...then a pure-read batch over this region.
          std::vector<Op> batch;
          for (int j = 0; j < 12; ++j) {
            const Vertex a =
                w * kRegion + static_cast<Vertex>(rng.next_below(kRegion));
            const Vertex b =
                w * kRegion + static_cast<Vertex>(rng.next_below(kRegion));
            switch (rng.next_below(3)) {
              case 0: batch.push_back(Op::connected(a, b)); break;
              case 1: batch.push_back(Op::component_size(a)); break;
              default: batch.push_back(Op::representative(a));
            }
          }
          const BatchResult r = dc->apply_batch(batch);
          for (std::size_t j = 0; j < batch.size(); ++j) {
            const uint64_t expected = oracle.apply(batch[j]);
            if (r.value(j) != expected) {
              errors[w].push_back("round " + std::to_string(round) + " op " +
                                  std::to_string(j) + ": got " +
                                  std::to_string(r.value(j)) + " want " +
                                  std::to_string(expected));
            }
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    for (unsigned w = 0; w < kWorkers; ++w) {
      EXPECT_TRUE(errors[w].empty()) << "variant " << id << " worker " << w
                                     << ": " << errors[w].front();
    }
  }
}

// ---------------------------------------------------------------------------
// Writer relabel (DESIGN.md §8.2): a link or commit that expired a live era
// republishes each small resulting component itself
// ---------------------------------------------------------------------------

/// Queries every vertex in [lo, hi) once through the cache and counts the
/// hits; each answer must be `size` / `rep`.
int first_query_hits(LabelCache& cache, Vertex lo, Vertex hi, uint64_t size,
                     Vertex rep) {
  auto& st = op_stats::local();
  int hits = 0;
  for (Vertex x = lo; x < hi; ++x) {
    const uint64_t before = st.label_hits;
    EXPECT_EQ(cache.component_size(x), size) << "vertex " << x;
    hits += st.label_hits != before ? 1 : 0;
    EXPECT_EQ(cache.representative(x), rep) << "vertex " << x;
  }
  return hits;
}

TEST(LabelCacheWriterRelabel, WarmComponentStaysWarmThroughCutAndLink) {
  // Path 0-1-2-3-4-5, warmed by a single read: the read publishes the era,
  // so the cut that splits it and the link that joins the pieces again both
  // republish their results, and no vertex misses afterwards.
  ett::Forest f(8);
  LabelCache cache(&f);
  for (Vertex x = 0; x < 5; ++x) f.link(x, x + 1);
  EXPECT_EQ(cache.component_size(5), 6u);

  f.cut(2, 3);
  EXPECT_EQ(first_query_hits(cache, 0, 3, 3, 0), 3);
  EXPECT_EQ(first_query_hits(cache, 3, 6, 3, 3), 3);

  f.link(0, 5);
  EXPECT_EQ(first_query_hits(cache, 0, 6, 6, 0), 6);
  auto& st = op_stats::local();
  const uint64_t hits = st.label_hits;
  EXPECT_TRUE(cache.connected(2, 4));
  EXPECT_FALSE(cache.connected(1, 7));  // 7 was never published: a miss
  EXPECT_EQ(st.label_hits, hits + 1);
}

TEST(LabelCacheWriterRelabel, NeverReadComponentPublishesNothing) {
  ett::Forest f(8);
  LabelCache cache(&f);
  auto& st = op_stats::local();
  const uint64_t publishes = st.label_publishes;
  for (Vertex x = 0; x < 5; ++x) f.link(x, x + 1);
  f.cut(2, 3);
  f.link(0, 5);
  EXPECT_EQ(st.label_publishes, publishes);
  // Still cold: the first query misses (and publishes its own chain).
  EXPECT_EQ(first_query_hits(cache, 3, 4, 6, 0), 0);
  EXPECT_EQ(st.label_publishes, publishes + 1);
}

TEST(LabelCacheWriterRelabel, ComponentAboveTheChainCapStaysLazy) {
  // A warm path of ChainRead::kCap vertices grows to kCap + 1 by a link:
  // too large to read whole, so the writer publishes nothing and the next
  // query misses.
  const Vertex kCap = ett::ChainRead::kCap;
  ett::Forest f(kCap + 1);
  LabelCache cache(&f);
  for (Vertex x = 0; x + 1 < kCap; ++x) f.link(x, x + 1);
  EXPECT_EQ(cache.component_size(kCap - 1), kCap);
  auto& st = op_stats::local();
  const uint64_t publishes = st.label_publishes;
  f.link(kCap - 1, kCap);
  EXPECT_EQ(st.label_publishes, publishes);
  EXPECT_EQ(first_query_hits(cache, kCap, kCap + 1, kCap + 1, 0), 0);
}

TEST(LabelCacheConcurrent, StripedWritersOnASmallComponentGridMatchTheOracle) {
  // Writer relabel under several writers: each owns a stripe of a grid's
  // edges and toggles them at about 40% density (below bond percolation,
  // so most components are small enough to relabel), while readers keep
  // every component warm. A cut's fresh piece becomes lockable by the other
  // writers at its unlink, so a relabel read made after that store races
  // their restructuring (TSan) or publishes a changed piece; the final
  // quiescent sweep, answered from the cache, must equal the DSU oracle.
  const Vertex kSide = 12;
  const Vertex n = kSide * kSide;
  std::vector<Edge> grid;
  for (Vertex r = 0; r < kSide; ++r) {
    for (Vertex c = 0; c < kSide; ++c) {
      const Vertex x = r * kSide + c;
      if (c + 1 < kSide) grid.emplace_back(x, x + 1);
      if (r + 1 < kSide) grid.emplace_back(x, x + kSide);
    }
  }
  const unsigned kWriters = 4;
  const unsigned kReaders = 2;
  const int kUpdates = 3000;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, n);
    std::vector<std::vector<char>> present(kWriters);
    std::atomic<unsigned> writing{kWriters};
    std::vector<std::string> errors(kReaders);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        std::vector<Edge> mine;
        for (std::size_t i = w; i < grid.size(); i += kWriters)
          mine.push_back(grid[i]);
        present[w].assign(mine.size(), 0);
        Xoshiro256 rng(9100 + w);
        for (int i = 0; i < kUpdates; ++i) {
          const std::size_t k = rng.next_below(mine.size());
          const bool want = rng.next_below(10) < 4;
          if (want == (present[w][k] != 0)) continue;
          const bool done = want ? dc->add_edge(mine[k].u, mine[k].v)
                                 : dc->remove_edge(mine[k].u, mine[k].v);
          EXPECT_TRUE(done) << "variant " << id;
          present[w][k] = want ? 1 : 0;
        }
        writing.fetch_sub(1, std::memory_order_release);
      });
    }
    for (unsigned r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        Xoshiro256 rng(9200 + r);
        while (writing.load(std::memory_order_acquire) != 0) {
          const Vertex a = static_cast<Vertex>(rng.next_below(n));
          const Vertex b = static_cast<Vertex>(rng.next_below(n));
          const uint64_t size = dc->component_size(a);
          const Vertex rep = dc->representative(a);
          dc->connected(a, b);
          if ((size == 0 || size > n || rep > a) && errors[r].empty()) {
            errors[r] = "vertex " + std::to_string(a) + " size " +
                        std::to_string(size) + " rep " + std::to_string(rep);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned r = 0; r < kReaders; ++r)
      EXPECT_TRUE(errors[r].empty()) << "variant " << id << ": " << errors[r];

    Dsu dsu(n);
    for (unsigned w = 0; w < kWriters; ++w) {
      for (std::size_t i = w, k = 0; i < grid.size(); i += kWriters, ++k)
        if (present[w][k] != 0) dsu.unite(grid[i].u, grid[i].v);
    }
    for (Vertex x = 0; x < n; ++x) {
      ASSERT_EQ(dc->representative(x), dsu.representative(x))
          << "variant " << id << " vertex " << x;
      ASSERT_EQ(dc->component_size(x), dsu.component_size(x))
          << "variant " << id << " vertex " << x;
    }
    for (const Edge& e : grid) {
      ASSERT_EQ(dc->connected(e.u, e.v), dsu.connected(e.u, e.v))
          << "variant " << id << " edge " << e.u << "-" << e.v;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime kill switch: force-disable mid-run, fall back, re-enable
// ---------------------------------------------------------------------------

class LabelCacheSwitch : public ::testing::Test {
 protected:
  // Every test leaves the process-wide switch on for its successors.
  void TearDown() override { LabelCache::set_globally_enabled(true); }
};

TEST_F(LabelCacheSwitch, ForceDisableMidRunFallsBackCorrectly) {
  if (!LabelCache::env_enabled()) GTEST_SKIP() << "DC_LABEL_CACHE=0";
  const Vertex kRegion = 20;
  const unsigned kWorkers = 3;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, kRegion * kWorkers);
    std::atomic<bool> stop{false};
    // The toggler flips the global switch the whole run: queries migrate
    // between the cache hit path and the fallback walk mid-stream, and
    // every re-enable must not resurrect labels published before a
    // disabled-window membership change.
    std::thread toggler([&] {
      bool on = false;
      while (!stop.load(std::memory_order_acquire)) {
        LabelCache::set_globally_enabled(on);
        on = !on;
        std::this_thread::yield();
      }
      LabelCache::set_globally_enabled(true);
    });
    std::vector<std::vector<std::string>> errors(kWorkers);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        QueryOracle oracle(kRegion * kWorkers);
        std::vector<Op> program = churn_program(kRegion, 1500, 6100 + w);
        for (Op& op : program) {
          op.u += w * kRegion;
          op.v += w * kRegion;
        }
        for (std::size_t i = 0; i < program.size(); ++i) {
          const uint64_t expected = oracle.apply(program[i]);
          const uint64_t got = exec_single(*dc, program[i]);
          if (got != expected) {
            errors[w].push_back("op " + std::to_string(i) + ": got " +
                                std::to_string(got) + " want " +
                                std::to_string(expected));
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    stop.store(true, std::memory_order_release);
    toggler.join();
    for (unsigned w = 0; w < kWorkers; ++w) {
      EXPECT_TRUE(errors[w].empty()) << "variant " << id << " worker " << w
                                     << ": " << errors[w].front();
    }
  }
}

TEST_F(LabelCacheSwitch, DisabledCacheAnswersLikeTheTreeWalk) {
  if (!LabelCache::env_enabled()) GTEST_SKIP() << "DC_LABEL_CACHE=0";
  // Warm the cache, disable it, and replay value queries sequentially: the
  // fallback must agree with the oracle (and components() must degrade to
  // the base scan, still exact at quiescence).
  const Vertex n = 40;
  for (int id : cache_variant_ids()) {
    auto dc = make_variant(id, n);
    Dsu oracle(n);
    Xoshiro256 rng(710);
    for (int i = 0; i < 200; ++i) {
      const Vertex a = static_cast<Vertex>(rng.next_below(n));
      const Vertex b = static_cast<Vertex>(rng.next_below(n));
      if (a != b) {
        dc->add_edge(a, b);
        oracle.unite(a, b);
      }
      dc->representative(a);  // publish some labels
    }
    LabelCache::set_globally_enabled(false);
    for (Vertex x = 0; x < n; ++x) {
      EXPECT_EQ(dc->representative(x), oracle.representative(x))
          << "variant " << id;
      EXPECT_EQ(dc->component_size(x), oracle.component_size(x))
          << "variant " << id;
    }
    const ComponentsSnapshot snap = dc->components();
    EXPECT_FALSE(snap.consistent) << "variant " << id;
    for (Vertex x = 0; x < n; ++x) {
      EXPECT_EQ(snap.labels[x], oracle.representative(x)) << "variant " << id;
    }
    LabelCache::set_globally_enabled(true);
  }
}

}  // namespace
}  // namespace condyn
