// Scenario-engine coverage: the scenario registry mirrors VariantRegistry,
// every generator is deterministic per seed, the binary trace format
// round-trips, record->replay reproduces the exact stream, and every
// registered scenario x every registered variant agrees with the sequential
// DSU oracle on a tiny graph.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/factory.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness/driver.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "query_oracle.hpp"

namespace condyn {
namespace {

using harness::RunConfig;
using harness::ScenarioInfo;
using Oracle = condyn::testutil::QueryOracle;

RunConfig tiny_config() {
  RunConfig cfg;
  cfg.threads = 1;
  cfg.read_percent = 50;
  cfg.seed = 11;
  cfg.warmup_ms = 0;
  cfg.measure_ms = 5;
  cfg.batch_size = 7;
  return cfg;
}

/// A trace file for the trace-replay scenario, recorded once per process.
const std::string& shared_trace_path(const Graph& g) {
  static std::string path;
  if (path.empty()) {
    path = ::testing::TempDir() + "test_scenarios_trace.bin";
    const ScenarioInfo* random = harness::find_scenario("random");
    EXPECT_NE(random, nullptr);
    harness::record_trace_file(*random, g, tiny_config(), 300, path);
  }
  return path;
}

Graph tiny_graph() { return gen::erdos_renyi(24, 60, 3); }

TEST(ScenarioRegistry, EnumeratesTheBuiltins) {
  const auto& scenarios = harness::all_scenarios();
  EXPECT_GE(scenarios.size(), 16u);
  // Ids are sequential in registration order, names unique.
  std::set<std::string> names;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].id, static_cast<int>(i) + 1);
    EXPECT_TRUE(names.insert(scenarios[i].name).second);
  }
  for (const char* name :
       {"random", "incremental", "decremental", "batch-random",
        "batch-incremental", "zipfian", "sliding-window", "component-local",
        "trace-replay", "trace-replay-dep", "size-query", "bulk-connected",
        "batch-zipfian", "batch-window", "batch-component-local"}) {
    const ScenarioInfo* s = harness::find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_STREQ(s->name, name);
    EXPECT_EQ(harness::find_scenario(s->id), s);
  }
  EXPECT_EQ(harness::find_scenario("no-such-scenario"), nullptr);
  EXPECT_EQ(harness::find_scenario(0), nullptr);
  EXPECT_EQ(harness::find_scenario(1000), nullptr);
  // Caps match the scenario contracts the driver branches on.
  EXPECT_TRUE(harness::find_scenario("incremental")->caps.finite);
  EXPECT_TRUE(harness::find_scenario("batch-random")->caps.batched);
  EXPECT_TRUE(harness::find_scenario("trace-replay")->caps.needs_trace);
  EXPECT_TRUE(harness::find_scenario("trace-replay-dep")->caps.needs_trace);
  EXPECT_TRUE(harness::find_scenario("trace-replay-dep")->caps.tracks_latency);
  EXPECT_FALSE(harness::find_scenario("trace-replay")->caps.tracks_latency);
  EXPECT_EQ(harness::find_scenario("decremental")->caps.prefill,
            harness::Prefill::kFull);
  // Query API v2 scenarios.
  EXPECT_TRUE(harness::find_scenario("size-query")->caps.uses_read_percent);
  EXPECT_FALSE(harness::find_scenario("size-query")->caps.batched);
  EXPECT_TRUE(harness::find_scenario("bulk-connected")->caps.batched);
  EXPECT_FALSE(harness::find_scenario("bulk-connected")->caps.uses_read_percent);
  EXPECT_TRUE(harness::find_scenario("batch-zipfian")->caps.batched);
  EXPECT_TRUE(harness::find_scenario("batch-window")->caps.batched);
  // The batched community-locality mix keeps the unbatched scenario's knobs.
  EXPECT_TRUE(harness::find_scenario("batch-component-local")->caps.batched);
  EXPECT_TRUE(
      harness::find_scenario("batch-component-local")->caps.uses_read_percent);
  EXPECT_EQ(harness::find_scenario("batch-component-local")->caps.prefill,
            harness::Prefill::kHalf);
  EXPECT_FALSE(harness::find_scenario("batch-component-local")->caps.finite);
  EXPECT_EQ(harness::find_scenario("bulk-connected")->caps.prefill,
            harness::Prefill::kHalf);
}

TEST(ScenarioStreams, SizeQueryMixRotatesTheQueryVocabulary) {
  const Graph g = tiny_graph();
  harness::SizeQueryStream stream(g, 60, 21);
  uint64_t counts[kNumOpKinds] = {};
  Op op;
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_TRUE(stream.next(op));
    ++counts[static_cast<std::size_t>(op.kind)];
    EXPECT_LT(op.u, g.num_vertices());
    EXPECT_LT(op.v, g.num_vertices());
    if (op.kind == OpKind::kComponentSize ||
        op.kind == OpKind::kRepresentative) {
      EXPECT_EQ(op.u, op.v);  // single-vertex ops keep v == u
    }
  }
  const auto reads = counts[2] + counts[3] + counts[4];
  EXPECT_NEAR(reads * 100.0 / kDraws, 60.0, 1.5);
  // The rotation splits reads roughly in thirds across the vocabulary.
  for (std::size_t k = 2; k < kNumOpKinds; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]), reads / 3.0, reads * 0.05)
        << "kind " << k;
  }
  EXPECT_GT(counts[0], 0u);  // adds
  EXPECT_GT(counts[1], 0u);  // removes
}

TEST(ScenarioStreams, BulkConnectedIsPureQueries) {
  const Graph g = tiny_graph();
  const ScenarioInfo* s = harness::find_scenario("bulk-connected");
  ASSERT_NE(s, nullptr);
  RunConfig cfg = tiny_config();
  cfg.read_percent = 0;  // must be ignored: the scenario is queries-only
  auto stream = s->make_stream(g, cfg, 0);
  Op op;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(stream->next(op));
    EXPECT_EQ(op.kind, OpKind::kConnected) << "op " << i;
  }
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  EXPECT_THROW(harness::ScenarioRegistry::instance().add(
                   "random", "dup", {},
                   [](const Graph& g, const RunConfig& cfg, unsigned) {
                     return std::make_unique<harness::RandomOpStream>(
                         g, cfg.read_percent, 0);
                   }),
               std::invalid_argument);
}

TEST(ScenarioStreams, SameSeedSameStream) {
  const Graph g = tiny_graph();
  RunConfig cfg = tiny_config();
  cfg.threads = 2;
  cfg.trace_path = shared_trace_path(g);
  for (const ScenarioInfo& s : harness::all_scenarios()) {
    for (unsigned t = 0; t < cfg.threads; ++t) {
      auto a = s.make_stream(g, cfg, t);
      auto b = s.make_stream(g, cfg, t);
      Op oa, ob;
      for (int i = 0; i < 400; ++i) {
        const bool ha = a->next(oa);
        const bool hb = b->next(ob);
        ASSERT_EQ(ha, hb) << s.name << " thread " << t << " op " << i;
        if (!ha) break;
        ASSERT_EQ(oa, ob) << s.name << " thread " << t << " op " << i;
      }
    }
  }
}

TEST(ScenarioStreams, DifferentSeedsDiverge) {
  const Graph g = tiny_graph();
  RunConfig a = tiny_config(), b = tiny_config();
  b.seed = a.seed + 1;
  for (const char* name : {"random", "zipfian", "component-local"}) {
    const ScenarioInfo* s = harness::find_scenario(name);
    ASSERT_NE(s, nullptr);
    auto sa = s->make_stream(g, a, 0);
    auto sb = s->make_stream(g, b, 0);
    int diffs = 0;
    Op oa, ob;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(sa->next(oa) && sb->next(ob));
      diffs += oa != ob;
    }
    EXPECT_GT(diffs, 0) << name;
  }
}

TEST(ScenarioStreams, ZipfianIsSkewedAndInBounds) {
  const Graph g = tiny_graph();
  harness::ZipfianOpStream stream(g, 0, 9, 0);
  std::map<Edge, int> hits;
  Op op;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_TRUE(stream.next(op));
    const Edge e(op.u, op.v);
    EXPECT_LT(op.u, g.num_vertices());
    EXPECT_LT(op.v, g.num_vertices());
    ++hits[e];
  }
  // Every emitted edge is a graph edge.
  const std::set<Edge> all(g.edges().begin(), g.edges().end());
  int hottest = 0;
  for (const auto& [e, n] : hits) {
    EXPECT_TRUE(all.count(e)) << e.u << "," << e.v;
    hottest = std::max(hottest, n);
  }
  // Zipf(0.99) over 60 edges puts ~20% of draws on the hottest edge; a
  // uniform mix would put ~1.7% there. 8% splits the two regimes safely.
  EXPECT_GT(hottest, kDraws * 8 / 100);
  // The popularity permutation is a bijection over the edge list.
  std::set<std::size_t> indices;
  for (uint64_t r = 0; r < g.num_edges(); ++r) {
    const std::size_t idx = stream.index_of_rank(r);
    EXPECT_LT(idx, g.num_edges());
    EXPECT_TRUE(indices.insert(idx).second) << "rank " << r;
  }
}

TEST(ScenarioStreams, ZipfThetaControlsSkew) {
  // The DC_BENCH_ZIPF_THETA knob: higher theta concentrates more draws on
  // the hottest edge. Compare the hottest-edge share at two thetas.
  const Graph g = tiny_graph();
  auto hottest_share = [&](double theta) {
    harness::ZipfianOpStream stream(g, 0, 9, 0, theta);
    std::map<Edge, int> hits;
    Op op;
    for (int i = 0; i < 20000; ++i) {
      EXPECT_TRUE(stream.next(op));
      ++hits[Edge(op.u, op.v)];
    }
    int hottest = 0;
    for (const auto& [e, n] : hits) hottest = std::max(hottest, n);
    return hottest;
  };
  EXPECT_GT(hottest_share(0.99), hottest_share(0.5) * 3 / 2);
}

TEST(ScenarioStreams, KnobsFlowThroughRunConfig) {
  // The registry factories must pass RunConfig's generator knobs to the
  // streams: changed knobs produce visibly different op sequences.
  const Graph g = tiny_graph();
  for (const char* name : {"zipfian", "component-local"}) {
    const ScenarioInfo* s = harness::find_scenario(name);
    ASSERT_NE(s, nullptr);
    RunConfig base;
    RunConfig tweaked = base;
    tweaked.zipf_theta = 0.2;
    tweaked.communities = 3;
    tweaked.run_length = 5;
    auto sa = s->make_stream(g, base, 0);
    auto sb = s->make_stream(g, tweaked, 0);
    int diffs = 0;
    Op oa, ob;
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(sa->next(oa) && sb->next(ob));
      diffs += oa != ob;
    }
    EXPECT_GT(diffs, 0) << name << ": knob change had no effect";
  }
  const ScenarioInfo* s = harness::find_scenario("sliding-window");
  ASSERT_NE(s, nullptr);
  RunConfig half;
  half.window_fraction = 0.5;
  auto stream = s->make_stream(g, half, 0);
  (void)stream;  // construction applies the fraction; window size below
  harness::SlidingWindowStream direct(g.edges(), 40, 7, 0.5);
  EXPECT_EQ(direct.window(), g.edges().size() / 2);
}

TEST(ScenarioStreams, RunLengthKnobControlsHopCadence) {
  const Graph g = tiny_graph();
  constexpr unsigned kRun = 8;
  harness::ComponentLocalStream stream(g, 50, 4, 13, 0, kRun);
  const Vertex block = (g.num_vertices() + 3) / 4;
  Op op;
  for (int run = 0; run < 30; ++run) {
    Vertex community = 0;
    for (unsigned i = 0; i < kRun; ++i) {
      ASSERT_TRUE(stream.next(op));
      const Vertex c = std::min(op.u, op.v) / block;
      if (i == 0) {
        community = c;
      } else {
        EXPECT_EQ(c, community) << "run " << run << " op " << i;
      }
    }
  }
}

TEST(ScenarioStreams, SlidingWindowKeepsLiveCountBounded) {
  const Graph g = tiny_graph();
  harness::SlidingWindowStream stream(g.edges(), 40, 7);
  std::multiset<Edge> live;
  Op op;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(stream.next(op));
    const Edge e(op.u, op.v);
    if (op.kind == OpKind::kAdd) {
      live.insert(e);
    } else if (op.kind == OpKind::kRemove) {
      // The trailing remove always targets a previously added edge.
      ASSERT_TRUE(live.count(e)) << "remove of never-added edge at op " << i;
      live.erase(live.find(e));
    } else {
      ASSERT_TRUE(live.count(e)) << "read outside the live window at op " << i;
    }
    EXPECT_LE(live.size(), stream.window());
  }
  // The window actually marched: more ops than the window size were added.
  EXPECT_EQ(live.size(), stream.window());

  // Degenerate stripe (more threads than edges): stream reports exhaustion
  // instead of dereferencing an empty edge list.
  harness::SlidingWindowStream empty({}, 40, 7);
  EXPECT_FALSE(empty.next(op));
}

TEST(ScenarioStreams, ComponentLocalOpsStayInOneCommunityPerRun) {
  const Graph g = tiny_graph();
  harness::ComponentLocalStream stream(
      g, 50, harness::ComponentLocalStream::kDefaultCommunities, 13, 0);
  EXPECT_GE(stream.num_communities(), 2u);
  const Vertex block =
      (g.num_vertices() + harness::ComponentLocalStream::kDefaultCommunities -
       1) /
      harness::ComponentLocalStream::kDefaultCommunities;
  Op op;
  for (int run = 0; run < 20; ++run) {
    Vertex community = 0;
    for (unsigned i = 0; i < harness::ComponentLocalStream::kRunLength; ++i) {
      ASSERT_TRUE(stream.next(op));
      const Vertex c = std::min(op.u, op.v) / block;
      if (i == 0) {
        community = c;
      } else {
        EXPECT_EQ(c, community) << "run " << run << " op " << i;
      }
    }
  }
}

TEST(TraceIo, RoundTripsThroughTheBinaryFormat) {
  io::Trace t;
  t.num_vertices = 0x80000000u;  // the writer validates ops against it
  t.ops = {Op::add(1, 2), Op::remove(999, 0), Op::connected(5, 5),
           Op::add(0xffffffffu >> 1, 3)};
  std::stringstream ss;
  io::save_trace(t, ss);
  EXPECT_EQ(io::load_trace(ss), t);
}

TEST(TraceIo, RejectsCorruptInput) {
  std::stringstream bad_magic("NOPE....");
  EXPECT_THROW(io::load_trace(bad_magic), std::runtime_error);

  // A hand-built v1 trace (the writer produces v3 only): header "DCTR",
  // version 1, |V| = 4, 2 ops; then kind, u, v per op, little-endian.
  auto u32 = [](uint32_t v) {
    std::string b;
    for (int i = 0; i < 4; ++i) b += static_cast<char>((v >> (8 * i)) & 0xff);
    return b;
  };
  const std::string bytes = "DCTR" + u32(1) + u32(4) + u32(2) + u32(0) +
                            '\0' + u32(0) + u32(1) +   // add(0, 1)
                            '\2' + u32(2) + u32(3);    // connected(2, 3)
  {  // the untouched bytes decode
    std::stringstream ok(bytes);
    const io::Trace t = io::load_trace(ok);
    EXPECT_EQ(t.num_vertices, 4u);
    EXPECT_EQ(t.ops, (std::vector<Op>{Op::add(0, 1), Op::connected(2, 3)}));
  }
  // Truncation mid-op.
  std::stringstream truncated(bytes.substr(0, bytes.size() - 3));
  EXPECT_THROW(io::load_trace(truncated), std::runtime_error);
  // Corrupt op kind.
  std::string corrupt = bytes;
  corrupt[4 + 4 + 4 + 8] = 7;  // first op's kind byte
  std::stringstream ck(corrupt);
  EXPECT_THROW(io::load_trace(ck), std::runtime_error);

  EXPECT_THROW(io::load_trace_file("/no/such/trace.bin"), std::runtime_error);
}

TEST(TraceRecord, IsDeterministicAndSelfContained) {
  const Graph g = tiny_graph();
  const ScenarioInfo* s = harness::find_scenario("random");
  ASSERT_NE(s, nullptr);
  const io::Trace a = harness::record_trace(*s, g, tiny_config(), 250);
  const io::Trace b = harness::record_trace(*s, g, tiny_config(), 250);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.num_vertices, g.num_vertices());
  // Prefill (half the graph) is frozen into the trace, then 250 stream ops.
  EXPECT_EQ(a.ops.size(), g.num_edges() / 2 + 250);
  for (std::size_t i = 0; i < g.num_edges() / 2; ++i)
    EXPECT_EQ(a.ops[i].kind, OpKind::kAdd);

  RunConfig other = tiny_config();
  other.seed = 12345;
  EXPECT_NE(harness::record_trace(*s, g, other, 250), a);

  // File round trip reproduces the exact stream.
  const std::string path = ::testing::TempDir() + "record_roundtrip.bin";
  harness::record_trace_file(*s, g, tiny_config(), 250, path);
  EXPECT_EQ(io::load_trace_file(path), a);
  std::remove(path.c_str());
}

TEST(TraceRecord, FiniteScenarioRecordsToCompletion) {
  const Graph g = tiny_graph();
  const ScenarioInfo* s = harness::find_scenario("decremental");
  ASSERT_NE(s, nullptr);
  const io::Trace t = harness::record_trace(*s, g, tiny_config(), 100000);
  // Full prefill plus one removal per edge; the stream ends on its own.
  EXPECT_EQ(t.ops.size(), 2 * g.num_edges());
  auto dc = make_variant(9, g.num_vertices());
  harness::replay_trace(*dc, t.ops);
  for (Vertex v = 1; v < g.num_vertices(); ++v)
    EXPECT_FALSE(dc->connected(0, v));
}

TEST(TraceReplay, IdenticalResultsAcrossVariants) {
  const Graph g = tiny_graph();
  const ScenarioInfo* s = harness::find_scenario("zipfian");
  ASSERT_NE(s, nullptr);
  const io::Trace t = harness::record_trace(*s, g, tiny_config(), 400);
  // The acceptance bar: one recorded trace, replayed on different variants,
  // yields identical per-op results — the registry's apples-to-apples tool.
  auto coarse = make_variant("coarse", g.num_vertices());
  const auto baseline = harness::replay_trace(*coarse, t.ops);
  ASSERT_EQ(baseline.size(), t.ops.size());
  for (const VariantInfo& v : all_variants()) {
    auto dc = v.make(g.num_vertices(), true);
    EXPECT_EQ(harness::replay_trace(*dc, t.ops), baseline) << v.name;
  }
}

TEST(ScenarioOracle, EveryScenarioEveryVariantMatchesDsuOracle) {
  const Graph g = tiny_graph();
  RunConfig cfg = tiny_config();
  cfg.trace_path = shared_trace_path(g);
  for (const ScenarioInfo& s : harness::all_scenarios()) {
    // Linearize the scenario into a trace, then check every variant's
    // replay against the sequential oracle op by op.
    const io::Trace t = harness::record_trace(s, g, cfg, 250);
    ASSERT_FALSE(t.ops.empty()) << s.name;
    Oracle oracle(g.num_vertices());
    const std::vector<uint64_t> expected = oracle.replay(t.ops);
    for (const VariantInfo& v : all_variants()) {
      auto dc = v.make(g.num_vertices(), true);
      const auto got = harness::replay_trace(*dc, t.ops);
      ASSERT_EQ(got.size(), expected.size()) << s.name << " on " << v.name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << s.name << " on " << v.name << " op " << i << " kind "
            << static_cast<int>(t.ops[i].kind) << " (" << t.ops[i].u << ","
            << t.ops[i].v << ")";
      }
    }
  }
}

TEST(ScenarioDriver, EveryScenarioRunsConcurrently) {
  const Graph g = gen::erdos_renyi(80, 240, 5);
  RunConfig cfg = tiny_config();
  cfg.threads = 2;
  // Wide enough that even under TSan's ~10x slowdown plus a parallel test
  // binary, every timed scenario completes at least one batch/op in the
  // window (a 10 ms window flaked there).
  cfg.measure_ms = 50;
  cfg.trace_path = shared_trace_path(tiny_graph());
  for (const ScenarioInfo& s : harness::all_scenarios()) {
    auto dc = make_variant(9, s.caps.needs_trace ? tiny_graph().num_vertices()
                                                 : g.num_vertices());
    const harness::RunResult r = harness::run_scenario(s, *dc, g, cfg);
    EXPECT_GT(r.total_ops, 0u) << s.name;
    EXPECT_GT(r.ops_per_ms, 0.0) << s.name;
    if (s.caps.batched) {
      EXPECT_GT(r.batches, 0u) << s.name;
    }
    if (std::string(s.name) == "incremental" ||
        std::string(s.name) == "batch-incremental") {
      EXPECT_EQ(r.total_ops, g.num_edges()) << s.name;
    }
  }
}

TEST(ScenarioDriver, TraceReplayGuardsMismatchedStructure) {
  const Graph g = tiny_graph();
  const ScenarioInfo* s = harness::find_scenario("trace-replay");
  ASSERT_NE(s, nullptr);
  RunConfig cfg = tiny_config();
  // No trace path configured.
  auto dc = make_variant(1, g.num_vertices());
  EXPECT_THROW(harness::run_scenario(*s, *dc, g, cfg), std::invalid_argument);
  // Structure too small for the trace's vertex universe.
  cfg.trace_path = shared_trace_path(g);
  auto small = make_variant(1, 2);
  EXPECT_THROW(harness::run_scenario(*s, *small, g, cfg),
               std::invalid_argument);
}

TEST(ScenarioDriver, PrefillMatchesCaps) {
  const Graph g = tiny_graph();
  EXPECT_TRUE(harness::prefill_ops(harness::Prefill::kNone, g, 1).empty());
  const auto half = harness::prefill_ops(harness::Prefill::kHalf, g, 1);
  EXPECT_EQ(half.size(), g.num_edges() / 2);
  const auto full = harness::prefill_ops(harness::Prefill::kFull, g, 1);
  EXPECT_EQ(full.size(), g.num_edges());
  for (const Op& op : full) EXPECT_EQ(op.kind, OpKind::kAdd);
}

TEST(ScenarioDriver, EnvConfigResolvesScenarioNamesAndIds) {
  ::setenv("DC_BENCH_SCENARIOS", "zipfian, 1 ,no-such, trace-replay", 1);
  ::setenv("DC_BENCH_READS", "70,101,30", 1);
  const harness::EnvConfig env = harness::env_config();
  ::unsetenv("DC_BENCH_SCENARIOS");
  ::unsetenv("DC_BENCH_READS");
  ASSERT_EQ(env.scenarios.size(), 3u);
  EXPECT_EQ(env.scenarios[0], "zipfian");
  EXPECT_EQ(env.scenarios[1], "random");  // id 1 resolved through the registry
  EXPECT_EQ(env.scenarios[2], "trace-replay");
  ASSERT_EQ(env.read_percents.size(), 2u);  // 101 rejected
  EXPECT_EQ(env.read_percents[0], 70);
  EXPECT_EQ(env.read_percents[1], 30);
}

}  // namespace
}  // namespace condyn
