// Query API v2 coverage: component_size / representative on every variant
// against the extended DSU oracle (tests/query_oracle.hpp, graph/dsu.hpp
// min-id tracking) — sequentially, under 4-thread concurrent churn
// (disjoint regions: values stay exact; quiet component beside churn:
// values stay exact AND stable), and with the NB-family guarantee that the
// value read path never touches a lock (lock_stats counters stay flat).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "core/ett.hpp"
#include "core/label_cache.hpp"
#include "core/nb_hdt.hpp"
#include "core/stats.hpp"
#include "query_oracle.hpp"
#include "util/lock_stats.hpp"
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
    switch (rng.next_below(6)) {
      case 0:
      case 1:
        ops.push_back(Op::add(a, b));
        break;
      case 2:
        ops.push_back(Op::remove(a, b));
        break;
      case 3:
        ops.push_back(Op::connected(a, b));
        break;
      case 4:
        ops.push_back(Op::component_size(a));
        break;
      default:
        ops.push_back(Op::representative(a));
    }
  }
  return ops;
}

class QueryVariants : public ::testing::TestWithParam<int> {};

TEST_P(QueryVariants, SequentialValuesMatchTheDsuOracle) {
  const Vertex n = 48;
  auto dc = make_variant(GetParam(), n);
  QueryOracle oracle(n);
  for (const Op& op : churn_program(n, 1500, 77)) {
    const uint64_t expected = oracle.apply(op);
    ASSERT_EQ(exec_single(*dc, op), expected)
        << "kind " << static_cast<int>(op.kind) << " (" << op.u << ","
        << op.v << ")";
  }
}

TEST_P(QueryVariants, RepresentativeIsCanonicalAndStableBetweenUpdates) {
  const Vertex n = 32;
  auto dc = make_variant(GetParam(), n);
  // Build two components and an isolated vertex.
  for (const Edge& e :
       {Edge(3, 7), Edge(7, 12), Edge(12, 5), Edge(20, 25), Edge(25, 21)}) {
    dc->add_edge(e.u, e.v);
  }
  // Canonical: the smallest member id, identical for every member.
  for (const Vertex v : {3u, 7u, 12u, 5u}) {
    EXPECT_EQ(dc->representative(v), 3u) << v;
  }
  for (const Vertex v : {20u, 25u, 21u}) {
    EXPECT_EQ(dc->representative(v), 20u) << v;
  }
  EXPECT_EQ(dc->representative(30), 30u);
  // Stable between updates: any number of repeated queries agree.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(dc->representative(12), 3u);
    ASSERT_EQ(dc->component_size(12), 4u);
  }
  // Equivalence contract: rep(u) == rep(v) iff connected(u, v).
  EXPECT_NE(dc->representative(5), dc->representative(21));
  dc->add_edge(5, 21);  // merge: canonical min of the union wins
  EXPECT_EQ(dc->representative(21), 3u);
  EXPECT_EQ(dc->component_size(20), 7u);
  dc->remove_edge(5, 21);
  EXPECT_EQ(dc->representative(21), 20u);
  EXPECT_EQ(dc->component_size(21), 3u);
}

TEST_P(QueryVariants, ConcurrentDisjointRegionChurnStaysExact) {
  // Workers churn disjoint vertex regions through the single-op API; every
  // value query must match the worker's own sequential oracle regardless of
  // cross-region interleaving (each region's component state is untouched
  // by the other workers, so the oracle value is THE linearizable answer).
  const Vertex kRegion = 20;
  const unsigned kWorkers = 4;
  auto dc = make_variant(GetParam(), kRegion * kWorkers);
  std::vector<std::vector<std::string>> errors(kWorkers);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      QueryOracle oracle(kRegion * kWorkers);
      std::vector<Op> program = churn_program(kRegion, 800, 500 + w);
      for (Op& op : program) {  // shift into this worker's region
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
    EXPECT_TRUE(errors[w].empty())
        << "worker " << w << ": " << errors[w].front();
  }
}

TEST_P(QueryVariants, QuietComponentStaysStableUnderForeignChurn) {
  // Vertices 0..9 form a fixed path no worker ever updates; three churn
  // workers hammer the rest of the graph. Size and representative of the
  // quiet component must stay exact AND stable for the whole run — the
  // "stable representative between updates" contract under real
  // concurrency.
  const Vertex n = 64;
  auto dc = make_variant(GetParam(), n);
  for (Vertex v = 0; v + 1 < 10; ++v) dc->add_edge(v, v + 1);

  std::vector<std::string> errors;
  std::vector<std::thread> workers;
  std::atomic<bool> stop{false};
  for (unsigned w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      Xoshiro256 rng(900 + w);
      while (!stop.load(std::memory_order_acquire)) {
        // Churn strictly inside [10, n): never touches the quiet component.
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
  for (int i = 0; i < 2000; ++i) {
    const Vertex probe = static_cast<Vertex>(i % 10);
    const uint64_t size = dc->component_size(probe);
    const Vertex rep = dc->representative(probe);
    if (size != 10) {
      errors.push_back("size(" + std::to_string(probe) + ") = " +
                       std::to_string(size));
      break;
    }
    if (rep != 0) {
      errors.push_back("rep(" + std::to_string(probe) + ") = " +
                       std::to_string(rep));
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  EXPECT_TRUE(errors.empty()) << errors.front();
}

INSTANTIATE_TEST_SUITE_P(AllVariants, QueryVariants,
                         ::testing::Range(1, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string n = all_variants()[info.param - 1].name;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(QueryLockFree, ValueReadsNeverAcquireLocksOnNbFamilies) {
  // The acceptance bar: on variants with lock-free reads whose value
  // queries ride the non-blocking path (the NB family and coarse/fine
  // nbreads), component_size/representative/connected must not perform a
  // single lock acquisition — lock_stats::local() stays flat across the
  // read loop. (parallel-combining publishes reads through the combiner by
  // design, so it is exempt; fc-nbreads reads lock-free.)
  for (const char* name :
       {"full", "full-coarse", "full-coarse-htm", "coarse-nbreads",
        "fine-nbreads", "fc-nbreads"}) {
    const VariantInfo* v = find_variant(name);
    ASSERT_NE(v, nullptr) << name;
    ASSERT_TRUE(v->caps.lock_free_reads) << name;
    auto dc = v->make(64, true);
    for (Vertex i = 0; i + 1 < 32; ++i) dc->add_edge(i, i + 1);
    // Touch every vertex once: the first query of a never-seen vertex
    // lazily creates its tour node, which can allocate a pool slab under
    // the pool's (stat-counted) spinlock. That is one-time lazy init, not
    // the steady-state read path this test pins down.
    for (Vertex i = 0; i < 64; ++i) dc->connected(i, i);

    lock_stats::reset_local();
    const lock_stats::Counters before = lock_stats::local();
    uint64_t sink = 0;
    for (int i = 0; i < 500; ++i) {
      const Vertex u = static_cast<Vertex>(i % 64);
      sink += dc->component_size(u);
      sink += dc->representative(u);
      sink += dc->connected(u, (u + 7) % 64) ? 1 : 0;
    }
    const lock_stats::Counters after = lock_stats::local();
    EXPECT_EQ(after.acquisitions, before.acquisitions) << name;
    EXPECT_EQ(after.wait_ns, before.wait_ns) << name;
    EXPECT_GT(sink, 0u);
  }
}

// ---------------------------------------------------------------------------
// Value reads racing structural brackets
// ---------------------------------------------------------------------------

/// What the racing-read tests drive: updates plus the three reads, with
/// the label cache's runtime switch at `cache`.
struct ValueTarget {
  std::string name;
  bool cache = true;
  std::function<void(Vertex, Vertex)> add, remove;
  std::function<uint64_t(Vertex)> size, rep;
  std::function<bool(Vertex, Vertex)> connected;
};

/// NbHdt itself, plus every cache-capable variant with the cache on and
/// with it switched off (the uncached lock-free value read). The closures
/// own their structure.
std::vector<ValueTarget> value_targets(Vertex n) {
  std::vector<ValueTarget> out;
  auto hdt = std::make_shared<NbHdt>(n, NbLockMode::kFine);
  out.push_back({"NbHdt", true,
                 [hdt](Vertex a, Vertex b) { hdt->add_edge(a, b); },
                 [hdt](Vertex a, Vertex b) { hdt->remove_edge(a, b); },
                 [hdt](Vertex u) { return hdt->component_size(u); },
                 [hdt](Vertex u) -> uint64_t { return hdt->representative(u); },
                 [hdt](Vertex a, Vertex b) { return hdt->connected(a, b); }});
  for (const VariantInfo& v : all_variants()) {
    if (!v.caps.label_cache) continue;
    for (const bool cache : {true, false}) {
      std::shared_ptr<DynamicConnectivity> dc = v.make(n, true);
      out.push_back({std::string(v.name) + (cache ? "/cache" : "/nocache"),
                     cache,
                     [dc](Vertex a, Vertex b) { dc->add_edge(a, b); },
                     [dc](Vertex a, Vertex b) { dc->remove_edge(a, b); },
                     [dc](Vertex u) { return dc->component_size(u); },
                     [dc](Vertex u) -> uint64_t {
                       return dc->representative(u);
                     },
                     [dc](Vertex a, Vertex b) { return dc->connected(a, b); }});
    }
  }
  return out;
}

/// One writer runs `churn` until three readers have each probed kReads
/// random vertices u: `check` judges size(u) and rep(u) (an error text,
/// empty when a linearizable read may give the pair), and u must be
/// connected to `peer(u)`, a vertex that never leaves u's component — a
/// label published under the wrong representative fails that. Returns the
/// first errors.
std::vector<std::string> race_value_reads(
    const ValueTarget& t, Vertex n,
    const std::function<void(Xoshiro256&)>& churn,
    const std::function<Vertex(Vertex, Xoshiro256&)>& peer,
    const std::function<std::string(Vertex, uint64_t, uint64_t)>& check) {
  constexpr int kReaders = 3;
  constexpr int kReads = 20000;
  LabelCache::set_globally_enabled(t.cache);
  std::atomic<int> running{kReaders};
  std::mutex mu;
  std::vector<std::string> errors;
  uint64_t bad = 0;
  std::thread writer([&] {
    Xoshiro256 rng(17);
    while (running.load(std::memory_order_acquire) > 0) churn(rng);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(300 + r);
      uint64_t local_bad = 0;
      std::string first;
      for (int i = 0; i < kReads; ++i) {
        const Vertex u = static_cast<Vertex>(rng.next_below(n));
        const uint64_t size = t.size(u);
        const uint64_t rep = t.rep(u);
        std::string e = check(u, size, rep);
        const Vertex w = peer(u, rng);
        if (e.empty() && !t.connected(u, w))
          e = "connected(" + std::to_string(u) + ", " + std::to_string(w) +
              ") = false";
        if (!e.empty()) {
          if (first.empty()) first = std::move(e);
          ++local_bad;
        }
      }
      running.fetch_sub(1, std::memory_order_release);
      std::lock_guard<std::mutex> g(mu);
      bad += local_bad;
      if (!first.empty()) errors.push_back(first);
    });
  }
  for (auto& th : readers) th.join();
  writer.join();
  LabelCache::set_globally_enabled(true);
  if (bad != 0)
    errors.insert(errors.begin(), t.name + ": " + std::to_string(bad) +
                                      " wrong answers");
  return errors;
}

TEST(ValueReadsUnderBrackets, CycleChurnNeverShowsAPiece) {
  // A 64-cycle whose edges are removed and re-added one at a time stays one
  // component throughout: every spanning removal finds a replacement
  // (cut_prepare, search, cut_relink). Mid-bracket the root's vstat holds
  // piece-only values under one version; a read must never return them.
  const Vertex n = 64;
  for (const ValueTarget& t : value_targets(n)) {
    for (Vertex v = 0; v < n; ++v) t.add(v, (v + 1) % n);
    const auto errors = race_value_reads(
        t, n,
        [&](Xoshiro256& rng) {
          const Vertex v = static_cast<Vertex>(rng.next_below(n));
          t.remove(v, (v + 1) % n);
          t.add(v, (v + 1) % n);
        },
        [&](Vertex, Xoshiro256& rng) {
          return static_cast<Vertex>(rng.next_below(n));
        },
        [](Vertex u, uint64_t size, uint64_t rep) -> std::string {
          if (size == 64 && rep == 0) return {};
          return "u " + std::to_string(u) + " size " + std::to_string(size) +
                 " rep " + std::to_string(rep);
        });
    EXPECT_TRUE(errors.empty()) << errors.front();
  }
}

TEST(ValueReadsUnderBrackets, BridgeToggleShowsOnlyWholeComponents) {
  // Two 32-cycles A = [0, 32) and B = [32, 64) joined by a bridge that is
  // toggled: a link bracket (merge) and a committed cut (split) in turn.
  // Any size other than 32 or 64, or a representative other than A's 0
  // (B's is 32 or, when bridged, 0), is a transient word.
  const Vertex n = 64;
  const Vertex half = 32;
  for (const ValueTarget& t : value_targets(n)) {
    for (Vertex v = 0; v < half; ++v) {
      t.add(v, (v + 1) % half);
      t.add(half + v, half + (v + 1) % half);
    }
    const auto errors = race_value_reads(
        t, n,
        [&](Xoshiro256& rng) {
          const Vertex a = static_cast<Vertex>(rng.next_below(half));
          const Vertex b = half + static_cast<Vertex>(rng.next_below(half));
          t.add(a, b);
          t.remove(a, b);
        },
        [&](Vertex u, Xoshiro256& rng) {
          return (u / half) * half + static_cast<Vertex>(rng.next_below(half));
        },
        [&](Vertex u, uint64_t size, uint64_t rep) -> std::string {
          const bool rep_ok = u < half ? rep == 0 : (rep == half || rep == 0);
          if ((size == half || size == n) && rep_ok) return {};
          return "u " + std::to_string(u) + " size " + std::to_string(size) +
                 " rep " + std::to_string(rep);
        });
    EXPECT_TRUE(errors.empty()) << errors.front();
  }
}

TEST(ValueReadsUnderBrackets, PendingCutBlocksOnlyItsOwnComponent) {
  // Per-component validation: an open bracket on X stops publishes for X
  // alone. X = path 0-1-2-3, Y = path 4-5-6.
  ett::Forest f(8);
  LabelCache cache(&f);
  for (Vertex v : {0u, 1u, 2u, 4u, 5u}) f.link(v, v + 1);
  ett::Forest::CutHandle h = f.cut_prepare(1, 2);

  auto& st = op_stats::local();
  const uint64_t publishes = st.label_publishes;
  EXPECT_EQ(cache.component_size(6), 3u);  // miss on Y publishes...
  EXPECT_EQ(st.label_publishes, publishes + 1);
  const uint64_t hits = st.label_hits;
  EXPECT_EQ(cache.component_size(6), 3u);  // ...so the next query hits
  EXPECT_EQ(st.label_hits, hits + 1);

  const uint64_t misses = st.label_misses;
  EXPECT_EQ(cache.component_size(3), 4u);  // X: the pre-cut size...
  EXPECT_EQ(cache.representative(3), 0u);
  EXPECT_EQ(st.label_publishes, publishes + 1);  // ...and nothing published
  EXPECT_EQ(st.label_misses, misses + 2);

  f.cut_commit(h);
  EXPECT_EQ(cache.component_size(3), 2u);
  EXPECT_EQ(cache.representative(3), 2u);
  EXPECT_EQ(cache.component_size(0), 2u);
  EXPECT_EQ(cache.component_size(6), 3u);
}

}  // namespace
}  // namespace condyn
