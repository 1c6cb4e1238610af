// Label-cache coverage (DESIGN.md §8): cached reads must be
// oracle-identical to the tree-walk reads they shortcut — sequentially,
// under concurrent churn racing the epoch invalidation, across a mid-run
// force-disable/re-enable of the whole cache — and components() snapshots
// must equal the DSU oracle on every variant, cache-backed or fallback.
// This file is part of the TSan CI set: the chain-collecting ascents are
// lock-free readers of the tour nodes' plain is_vertex/tail fields, and the
// hit path races structural brackets by design.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/label_cache.hpp"
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
