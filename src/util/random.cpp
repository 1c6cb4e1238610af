#include "util/random.hpp"

#include <atomic>

namespace condyn {

namespace {
std::atomic<uint64_t> g_thread_seq{0x9e3779b97f4a7c15ULL};
}

Xoshiro256& thread_rng() noexcept {
  thread_local Xoshiro256 rng(
      mix64(g_thread_seq.fetch_add(0x9e3779b97f4a7c15ULL,
                                   std::memory_order_relaxed)));
  return rng;
}

}  // namespace condyn
