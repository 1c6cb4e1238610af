#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/driver.hpp"

namespace condyn::harness {

/// Plot-shaped text output: one block per graph, one row per variant, one
/// column per thread count — the series behind each sub-plot of the paper's
/// figures. `unit` labels the measured quantity ("ops/ms" for the throughput
/// figures, "active %" for Figures 7/8/11/12).
class SeriesReport {
 public:
  SeriesReport(std::string title, std::string unit,
               std::vector<unsigned> thread_counts);

  void begin_graph(const std::string& graph_name);
  void add_point(const std::string& variant, unsigned threads, double value);
  /// Render everything collected so far to stdout.
  void print() const;

 private:
  struct Row {
    std::string variant;
    std::vector<double> values;  // indexed like thread_counts_
  };
  struct Block {
    std::string graph;
    std::vector<Row> rows;
  };

  std::string title_;
  std::string unit_;
  std::vector<unsigned> thread_counts_;
  std::vector<Block> blocks_;
};

/// Simple aligned key/column table for the statistics tables (Tables 3, 4).
class TableReport {
 public:
  explicit TableReport(std::string title, std::vector<std::string> columns);
  void add_row(std::vector<std::string> cells);
  void print() const;

  static std::string pct(double value);   // "93.4"
  static std::string num(double value);   // "12345.6"

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable result sink for bench_suite (DESIGN.md §6.3): flat
/// records of key/value fields plus suite-wide metadata, rendered as
///   {"suite": ..., "meta": {...}, "results": [{...}, ...]}
/// so the perf trajectory is trackable across PRs (the CI build artifact).
class JsonReport {
 public:
  /// One result record. The reference returned by add_record() is valid
  /// until the next add_record() call — populate it immediately.
  class Record {
   public:
    Record& field(const std::string& key, const std::string& value);
    Record& field(const std::string& key, const char* value);
    Record& field(const std::string& key, double value);
    Record& field(const std::string& key, uint64_t value);
    Record& field(const std::string& key, int value);

   private:
    friend class JsonReport;
    std::vector<std::pair<std::string, std::string>> fields_;  // key -> JSON
  };

  explicit JsonReport(std::string suite) : suite_(std::move(suite)) {}

  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);
  void meta(const std::string& key, uint64_t value);

  Record& add_record();
  std::size_t size() const noexcept { return records_.size(); }

  void write(std::ostream& out) const;
  void save_file(const std::string& path) const;

 private:
  std::string suite_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Record> records_;
};

/// Render a JsonReport to its JSON text.
std::string json_report(const JsonReport& report);

/// Linear-interpolated quantile, p in [0, 1], of a sorted non-empty sample:
/// the one percentile routine behind the harness's latency, sojourn and
/// run-spread figures.
template <typename T>
double quantile(const std::vector<T>& sorted, double p) {
  const double at = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         (static_cast<double>(sorted[hi]) - static_cast<double>(sorted[lo])) *
             frac;
}

}  // namespace condyn::harness
