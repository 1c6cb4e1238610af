// Benchmark-harness tests: workload generators produce the distributions
// the scenarios specify, the driver measures and aggregates correctly, and
// the reports render every collected point.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/factory.hpp"
#include "graph/cc.hpp"
#include "graph/generators.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace condyn {
namespace {

/// The table entry of a built-in scenario.
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

/// Busy for 2 ms in every add_edge and records, per calling thread, when its
/// first call started and its last call returned. It spins rather than
/// sleeps: a busy worker keeps its CPU, so on a loaded or single CPU the
/// main thread can be scheduled only after the workers are done.
class SleepyDc final : public DynamicConnectivity {
 public:
  using Clock = std::chrono::steady_clock;
  struct Span {
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
  };

  explicit SleepyDc(Vertex n) : n_(n) {}

  bool add_edge(Vertex, Vertex) override {
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1 = t0;
    while (t1 - t0 < std::chrono::milliseconds(2)) t1 = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[std::this_thread::get_id()];
    s.first = std::min(s.first, t0);
    s.last = std::max(s.last, t1);
    return true;
  }
  bool remove_edge(Vertex, Vertex) override { return false; }
  bool connected(Vertex u, Vertex v) override { return u == v; }
  uint64_t component_size(Vertex) override { return 1; }
  Vertex representative(Vertex u) override { return u; }
  Vertex num_vertices() const override { return n_; }
  std::string name() const override { return "sleepy"; }

  const std::map<std::thread::id, Span>& spans() const { return spans_; }

 private:
  Vertex n_;
  std::mutex mu_;
  std::map<std::thread::id, Span> spans_;
};

TEST(Driver, FiniteWindowCoversEveryWorkersSpan) {
  // The window is stamped by the workers themselves: it must contain every
  // worker's span of calls, and their union, however late the main thread
  // is scheduled.
  Graph g = gen::erdos_renyi(40, 24, 9);
  SleepyDc dc(g.num_vertices());
  harness::RunConfig cfg;
  cfg.threads = 3;
  const harness::RunResult r =
      harness::run_scenario(builtin("incremental"), dc, g, cfg);
  EXPECT_EQ(r.total_ops, g.num_edges());
  ASSERT_EQ(dc.spans().size(), cfg.threads);
  auto ms = [](SleepyDc::Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  SleepyDc::Span all;
  for (const auto& [id, s] : dc.spans()) {
    EXPECT_GE(r.elapsed_ms, ms(s.last - s.first));
    all.first = std::min(all.first, s.first);
    all.last = std::max(all.last, s.last);
  }
  EXPECT_GE(r.elapsed_ms, ms(all.last - all.first));
  // Each worker spent 2 ms per op over its stripe of the edges.
  EXPECT_GE(r.elapsed_ms, 2.0 * (g.num_edges() / cfg.threads));
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

TEST(Report, QuantileInterpolatesSortedSamples) {
  const std::vector<double> runs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(harness::quantile(runs, 0.0), 10);
  EXPECT_DOUBLE_EQ(harness::quantile(runs, 0.25), 20);
  EXPECT_DOUBLE_EQ(harness::quantile(runs, 0.5), 30);
  EXPECT_DOUBLE_EQ(harness::quantile(runs, 0.9), 46);  // between 40 and 50
  EXPECT_DOUBLE_EQ(harness::quantile(runs, 1.0), 50);
  // Integer samples (latency and sojourn nanoseconds) read the same way.
  const std::vector<uint32_t> ns{100, 300};
  EXPECT_DOUBLE_EQ(harness::quantile(ns, 0.5), 200);
  EXPECT_DOUBLE_EQ(harness::quantile(std::vector<uint32_t>{7}, 0.99), 7);
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
