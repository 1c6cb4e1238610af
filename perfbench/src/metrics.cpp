#include "metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void MetricSet::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const MetricSet& metrics) {
  char head[128];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": ",
                correct ? "true" : "false", attempted, failed);
  return head + metrics.json() + "}";
}

}  // namespace perfbench
