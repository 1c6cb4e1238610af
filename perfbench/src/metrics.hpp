#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Named values with units, printed as the benchmark's JSON result line.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const MetricSet& metrics);

/// A JSON number with every significant digit (non-finite values print 0).
std::string json_number(double v);

}  // namespace perfbench
