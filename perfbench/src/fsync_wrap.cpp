// fsync interposer of perfbench_traced: linked with -Wl,--wrap=fsync, so
// the library's journal and snapshot fsync calls land here and are timed.

#include <unistd.h>

#include <atomic>
#include <mutex>

#include "common.hpp"
#include "trace.hpp"

extern "C" int __real_fsync(int fd);

namespace perfbench::trace {

namespace {
std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<FsyncSpan> g_spans;  // guarded by g_mu
}  // namespace

void fsync_enable(bool on) { g_enabled.store(on); }

std::vector<FsyncSpan> fsync_take() {
  std::lock_guard lk(g_mu);
  return std::move(g_spans);
}

}  // namespace perfbench::trace

extern "C" int __wrap_fsync(int fd) {
  using namespace perfbench;
  if (!trace::g_enabled.load(std::memory_order_relaxed)) return __real_fsync(fd);
  const int64_t t0 = now_ns();
  const int rc = __real_fsync(fd);
  const int64_t dt = now_ns() - t0;
  std::lock_guard lk(trace::g_mu);
  trace::g_spans.push_back({t0, static_cast<uint32_t>(dt)});
  return rc;
}
