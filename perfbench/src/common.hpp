#pragma once

// Shared vocabulary of the benchmark binaries: clocks, per-client op streams
// and percentile helpers. Everything here is benchmark-side; the program
// under test is reached only through its public headers.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/dynamic_connectivity.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

using condyn::DynamicConnectivity;
using condyn::Op;
using condyn::OpKind;
using condyn::Vertex;

/// Client threads of the embedded loops and connections of the serve loops
/// (the host's nproc; the generator never uses more threads than this).
inline constexpr unsigned kClients = 4;
/// Ops per frame on the open-loop ladder (the server's usual batch).
inline constexpr unsigned kFrameOps = 8;
/// Marks a query in Stream::edge (queries own no edge).
inline constexpr uint32_t kNoEdge = 0xffffffffu;

/// One client's pre-generated program. edge[i] is the graph edge index an
/// update touches (every update of client c lies in stripe c, so no two
/// clients ever touch one edge and the final edge set is a pure function
/// of each client's own sequence).
struct Stream {
  std::vector<Op> ops;
  std::vector<uint32_t> edge;
};

inline int64_t now_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double cpu_seconds(clockid_t clock) noexcept {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double process_cpu_s() noexcept {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
inline double thread_cpu_s() noexcept {
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

/// CPUs this process may run on, in order (sched_getaffinity at start-up).
std::vector<int> allowed_cpus();

/// Pin the calling thread (and threads it creates later) to `cpus`; a no-op
/// when the list is empty.
void pin_current_thread(const std::vector<int>& cpus);

/// Where each party runs: the generator owns the last allowed CPU and the
/// system under test the rest, so a spinning generator never takes CPU time
/// from the server. With a single CPU both lists are empty (no pinning).
struct Placement {
  std::vector<int> generator;
  std::vector<int> program;
};
Placement placement();

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min<std::size_t>(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double median(std::vector<T> v) {
  return percentile(std::move(v), 0.5);
}

}  // namespace perfbench
