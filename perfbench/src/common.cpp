#include "common.hpp"

#include <sched.h>

namespace perfbench {

std::vector<int> allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

Placement placement() {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return {};
  return {{cpus.back()}, std::vector<int>(cpus.begin(), cpus.end() - 1)};
}

}  // namespace perfbench
