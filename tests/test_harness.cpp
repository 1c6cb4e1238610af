// Benchmark-harness tests: workload generators produce the distributions
// the scenarios specify, the driver measures and aggregates correctly, and
// the reports render every collected point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "api/factory.hpp"
#include "graph/cc.hpp"
#include "graph/generators.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace condyn {
namespace {

/// The registry entry of a built-in scenario.
const harness::ScenarioInfo& builtin(const char* name) {
  const harness::ScenarioInfo* s = harness::find_scenario(name);
  if (s == nullptr)
    throw std::runtime_error(std::string("built-in scenario missing: ") + name);
  return *s;
}

TEST(Workload, RandomHalfIsAHalfSubset) {
  Graph g = gen::erdos_renyi(100, 400, 3);
  const std::vector<Edge> half = harness::random_half(g, 9);
  EXPECT_EQ(half.size(), 200u);
  std::set<Edge> all(g.edges().begin(), g.edges().end());
  std::set<Edge> chosen(half.begin(), half.end());
  EXPECT_EQ(chosen.size(), half.size()) << "duplicates in the half";
  for (const Edge& e : half) EXPECT_TRUE(all.count(e));
  // Deterministic per seed, different across seeds.
  EXPECT_EQ(harness::random_half(g, 9), half);
  EXPECT_NE(harness::random_half(g, 10), half);
}

TEST(Workload, StripesPartitionTheEdgeList) {
  Graph g = gen::erdos_renyi(60, 150, 4);
  const unsigned kThreads = 4;
  std::vector<Edge> merged;
  for (unsigned t = 0; t < kThreads; ++t) {
    const auto s = harness::stripe(g.edges(), t, kThreads);
    merged.insert(merged.end(), s.begin(), s.end());
  }
  EXPECT_EQ(merged.size(), g.num_edges());
  std::set<Edge> uniq(merged.begin(), merged.end());
  EXPECT_EQ(uniq.size(), g.num_edges());
}

TEST(Workload, RandomOpStreamHonorsReadPercent) {
  Graph g = gen::erdos_renyi(50, 120, 5);
  // 99 and 85 give *odd* update shares: the old parity-based add/remove coin
  // made removals impossible there (1% adds / 0% removes at 99% reads).
  for (int read_pct : {0, 80, 85, 99}) {
    harness::RandomOpStream stream(g, read_pct, 77);
    int reads = 0, adds = 0, removes = 0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
      const Op op = stream.next();
      switch (op.kind) {
        case OpKind::kConnected:
          ++reads;
          break;
        case OpKind::kAdd:
          ++adds;
          break;
        case OpKind::kRemove:
          ++removes;
          break;
        default:
          ADD_FAILURE() << "unexpected op kind "
                        << static_cast<int>(op.kind);
      }
      EXPECT_NE(op.u, op.v);
    }
    EXPECT_NEAR(reads * 100.0 / kDraws, read_pct, 0.5);
    // Additions and removals must balance (keeps |E| steady, §5.1): each is
    // half the update share, within ~5 standard deviations.
    const double update_share = (100.0 - read_pct) / 100.0;
    const double expect_each = kDraws * update_share / 2;
    const double slack = 5 * std::sqrt(expect_each) + 1;
    EXPECT_NEAR(adds, expect_each, slack) << "read_pct=" << read_pct;
    EXPECT_NEAR(removes, expect_each, slack) << "read_pct=" << read_pct;
    if (read_pct < 100) {
      EXPECT_GT(adds, 0) << "read_pct=" << read_pct;
      EXPECT_GT(removes, 0) << "read_pct=" << read_pct;
    }
  }
}

TEST(Workload, RunConfigValidation) {
  harness::RunConfig cfg;
  cfg.read_percent = 150;
  cfg.batch_size = 0;
  const harness::RunConfig ok = harness::validated(cfg);
  EXPECT_EQ(ok.read_percent, 100);
  EXPECT_EQ(ok.batch_size, 1u);
  cfg.read_percent = -3;
  EXPECT_EQ(harness::validated(cfg).read_percent, 0);

  harness::RunConfig bad_threads;
  bad_threads.threads = 0;
  EXPECT_THROW(harness::validated(bad_threads), std::invalid_argument);

  harness::RunConfig bad_measure;
  bad_measure.measure_ms = 0;
  EXPECT_THROW(harness::validated(bad_measure), std::invalid_argument);
  bad_measure.measure_ms = -5;
  EXPECT_THROW(harness::validated(bad_measure), std::invalid_argument);

  harness::RunConfig bad_warmup;
  bad_warmup.warmup_ms = -1;
  EXPECT_THROW(harness::validated(bad_warmup), std::invalid_argument);

  // The drivers validate on entry: an unusable config is rejected before
  // any thread spawns instead of producing undefined downstream behavior.
  Graph g = gen::erdos_renyi(20, 40, 2);
  auto dc = make_variant(1, g.num_vertices());
  EXPECT_THROW(
      harness::run_scenario(builtin("random"), *dc, g, bad_threads),
      std::invalid_argument);
}

TEST(Workload, ValidationRejectsArrivalRateOnClosedLoopBatchScenarios) {
  harness::RunConfig cfg;
  cfg.arrival_rate = 50000;

  // A batched closed-loop scenario cannot honor an open-loop rate: pacing
  // the batch filler measures neither regime, so it must throw loudly
  // (a global DC_BENCH_RATE silently distorting batch numbers would be
  // worse than an error).
  harness::ScenarioCaps batched;
  batched.batched = true;
  EXPECT_THROW(harness::validated(cfg, batched), std::invalid_argument);

  // Non-paced per-op scenarios have no pacing hook: the rate is cleared,
  // not an error, so one exported DC_BENCH_RATE doesn't break a sweep.
  harness::ScenarioCaps plain;
  EXPECT_EQ(harness::validated(cfg, plain).arrival_rate, 0.0);

  // Paced scenarios (firehose) keep the rate.
  harness::ScenarioCaps paced;
  paced.paced = true;
  EXPECT_EQ(harness::validated(cfg, paced).arrival_rate, 50000.0);

  // A negative rate is clamped to "unpaced" everywhere.
  cfg.arrival_rate = -1;
  EXPECT_EQ(harness::validated(cfg, paced).arrival_rate, 0.0);

  // End to end: the batch driver rejects the env knob combination.
  cfg = harness::RunConfig{};
  cfg.arrival_rate = 1000;
  cfg.measure_ms = 5;
  cfg.warmup_ms = 0;
  Graph g = gen::erdos_renyi(20, 40, 2);
  auto dc = make_variant(1, g.num_vertices());
  EXPECT_THROW(harness::run_scenario(builtin("batch-random"), *dc, g, cfg),
               std::invalid_argument);
}

TEST(Workload, BatchStreamMatchesPerOpStream) {
  Graph g = gen::erdos_renyi(40, 100, 5);
  harness::RandomOpStream ops(g, 80, 123);
  harness::RandomBatchStream batches(g, 80, 32, 123);
  // Same seed: the batch stream is just the per-op stream, chunked.
  for (int round = 0; round < 5; ++round) {
    const std::span<const Op> batch = batches.next();
    ASSERT_EQ(batch.size(), 32u);
    for (const Op& op : batch) EXPECT_EQ(op, ops.next());
  }
}

TEST(Workload, UpdateBatchesCoverTheEdgeList) {
  Graph g = gen::erdos_renyi(60, 150, 4);
  const auto batches = harness::update_batches(g.edges(), 64, OpKind::kAdd);
  ASSERT_EQ(batches.size(), (g.num_edges() + 63) / 64);
  std::size_t total = 0;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 64u);
    for (const Op& op : b) EXPECT_EQ(op.kind, OpKind::kAdd);
    total += b.size();
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(Driver, RandomScenarioProducesThroughput) {
  Graph g = gen::erdos_renyi(200, 600, 6);
  auto dc = make_variant(3, g.num_vertices());
  harness::RunConfig cfg;
  cfg.threads = 2;
  cfg.read_percent = 80;
  cfg.warmup_ms = 10;
  cfg.measure_ms = 40;
  const harness::RunResult r =
      harness::run_scenario(builtin("random"), *dc, g, cfg);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.ops_per_ms, 0.0);
  EXPECT_GE(r.elapsed_ms, cfg.measure_ms * 0.9);
  EXPECT_GE(r.active_time_percent, 0.0);
  EXPECT_LE(r.active_time_percent, 100.0);
  EXPECT_GT(r.op_counters.reads, 0u);
}

TEST(Driver, BatchScenarioProducesThroughputAndLatency) {
  Graph g = gen::erdos_renyi(200, 600, 6);
  auto dc = make_variant("coarse", g.num_vertices());
  harness::RunConfig cfg;
  cfg.threads = 2;
  cfg.read_percent = 80;
  cfg.warmup_ms = 10;
  cfg.measure_ms = 40;
  cfg.batch_size = 32;
  const harness::RunResult r =
      harness::run_scenario(builtin("batch-random"), *dc, g, cfg);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.ops_per_ms, 0.0);
  EXPECT_GT(r.batches, 0u);
  EXPECT_EQ(r.total_ops, r.batches * cfg.batch_size);
  EXPECT_GT(r.batch_latency_us_avg, 0.0);
  EXPECT_GE(r.batch_latency_us_max, r.batch_latency_us_avg);
}

TEST(Driver, EnvConfigBatchSizesDefaulted) {
  const harness::EnvConfig env = harness::env_config();
  ASSERT_FALSE(env.batch_sizes.empty());
  for (std::size_t b : env.batch_sizes) EXPECT_GE(b, 1u);
}

TEST(Driver, IncrementalInsertsWholeGraph) {
  Graph g = gen::erdos_renyi(150, 500, 7);
  auto dc = make_variant(9, g.num_vertices());
  harness::RunConfig cfg;
  cfg.threads = 3;
  const harness::RunResult r =
      harness::run_scenario(builtin("incremental"), *dc, g, cfg);
  EXPECT_EQ(r.total_ops, g.num_edges());
  // Everything inserted: structure must agree with the full graph.
  const ComponentInfo cc = connected_components(g);
  for (Vertex a = 0; a < 150; a += 11)
    for (Vertex b = a + 1; b < 150; b += 13)
      EXPECT_EQ(dc->connected(a, b), cc.label[a] == cc.label[b]);
}

TEST(Driver, DecrementalEmptiesTheStructure) {
  Graph g = gen::erdos_renyi(120, 360, 8);
  auto dc = make_variant(9, g.num_vertices());
  harness::RunConfig cfg;
  cfg.threads = 3;
  const harness::RunResult r =
      harness::run_scenario(builtin("decremental"), *dc, g, cfg);
  EXPECT_EQ(r.total_ops, g.num_edges());
  for (Vertex v = 1; v < 120; v += 7) EXPECT_FALSE(dc->connected(0, v));
}

TEST(Driver, EnvConfigDefaultsAreSane) {
  const harness::EnvConfig env = harness::env_config();
  EXPECT_FALSE(env.thread_counts.empty());
  for (unsigned t : env.thread_counts) EXPECT_GE(t, 1u);
  EXPECT_GT(env.measure_ms, 0);
  EXPECT_GT(env.scale, 0.0);
}

TEST(Report, SeriesRendersAllPoints) {
  harness::SeriesReport rep("t", "ops/ms", {1, 2, 4});
  rep.begin_graph("g1");
  rep.add_point("coarse", 1, 10);
  rep.add_point("coarse", 2, 20);
  rep.add_point("coarse", 4, 40);
  rep.add_point("full", 1, 15);
  ::testing::internal::CaptureStdout();
  rep.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("g1"), std::string::npos);
  EXPECT_NE(out.find("coarse"), std::string::npos);
  EXPECT_NE(out.find("40.0"), std::string::npos);
  EXPECT_NE(out.find("full"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);  // missing point placeholder
}

TEST(Report, JsonReportIsWellFormed) {
  harness::JsonReport json("suite-\"quoted\"");
  json.meta("seed", uint64_t{42});
  json.meta("scale", 0.05);
  json.add_record()
      .field("scenario", "random")
      .field("variant", std::string("co\narse"))
      .field("threads", 4)
      .field("ops_per_ms", 123.5)
      .field("total_ops", uint64_t{99});
  json.add_record().field("scenario", "zipfian").field("nan_guard",
                                                       std::nan(""));
  const std::string out = harness::json_report(json);
  // Structure and escaping (newline in a value, quotes in the suite name).
  EXPECT_NE(out.find("\"suite\": \"suite-\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"variant\": \"co\\narse\""), std::string::npos);
  EXPECT_NE(out.find("\"ops_per_ms\": 123.5"), std::string::npos);
  EXPECT_NE(out.find("\"nan_guard\": null"), std::string::npos);
  // Balanced braces/brackets: a cheap well-formedness proxy without a
  // JSON parser in the test toolchain.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(Report, TableAlignsColumns) {
  harness::TableReport t("title", {"a", "long-column"});
  t.add_row({"x", harness::TableReport::pct(12.34)});
  ::testing::internal::CaptureStdout();
  t.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("long-column"), std::string::npos);
  EXPECT_NE(out.find("12.3"), std::string::npos);
}

}  // namespace
}  // namespace condyn
