#include "closed_loop.hpp"

#include <atomic>
#include <barrier>
#include <thread>

#include "util/random.hpp"

namespace perfbench {

namespace {

/// One in 32 ops is timed individually; two clock reads per 32 ops keep the
/// sampling cost near 1% of a round. The timed positions shift by one each
/// round: rounds replay the same program, and a fixed phase would time the
/// same few thousand ops over and over.
constexpr std::size_t kSampleMask = 31;
/// Samples kept per thread and op class, whatever the number of rounds, so
/// the memory a run holds (and rss_mb) does not grow with its speed.
constexpr std::size_t kReservoir = 1u << 16;

/// Uniform sample of a stream of unknown length (Vitter's algorithm R).
class Reservoir {
 public:
  explicit Reservoir(uint64_t seed) : rng_(seed) { kept_.reserve(kReservoir); }
  void add(uint32_t x) {
    ++seen_;
    if (kept_.size() < kReservoir) {
      kept_.push_back(x);
    } else if (const uint64_t j = rng_.next_below(seen_); j < kReservoir) {
      kept_[j] = x;
    }
  }
  const std::vector<uint32_t>& kept() const { return kept_; }

 private:
  condyn::Xoshiro256 rng_;
  std::vector<uint32_t> kept_;
  uint64_t seen_ = 0;
};

struct ThreadState {
  explicit ThreadState(unsigned c) : query_ns(2 * c + 1), update_ns(2 * c + 2) {}
  std::vector<uint8_t> results;
  Reservoir query_ns, update_ns;
  int64_t start_ns = 0, end_ns = 0;
  double cpu_s = 0;  ///< thread CPU of the last round
  uint64_t mismatches = 0;
};

uint32_t clamp_ns(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

void run_round(DynamicConnectivity& dc, const Stream& s, std::size_t round,
               ThreadState& st) {
  const std::size_t n = s.ops.size();
  const double cpu0 = thread_cpu_s();
  st.start_ns = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = s.ops[i];
    if (((i + round) & kSampleMask) == 0) {
      const int64_t t0 = now_ns();
      const bool r = condyn::exec_single(dc, op) != 0;
      const uint32_t dt = clamp_ns(now_ns() - t0);
      st.results[i] = r;
      if (!condyn::is_update(op.kind)) {
        st.query_ns.add(dt);
      } else if (r) {
        st.update_ns.add(dt);
      }
    } else {
      st.results[i] = static_cast<uint8_t>(condyn::exec_single(dc, op) != 0);
    }
  }
  st.end_ns = now_ns();
  st.cpu_s = thread_cpu_s() - cpu0;
}

/// Replays the round's updates against the expected presence of the
/// thread's own stripe (no other thread touches these edges).
void verify_round(const Stream& s, ThreadState& st,
                  std::vector<uint8_t>& presence) {
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    if (s.edge[i] == kNoEdge) continue;
    uint8_t& present = presence[s.edge[i]];
    const bool is_add = s.ops[i].kind == OpKind::kAdd;
    const uint8_t expected = is_add ? !present : present;
    st.mismatches += st.results[i] != expected;
    present = is_add ? 1 : 0;
  }
}

}  // namespace

ClosedLoopResult run_closed_loop(std::span<DynamicConnectivity* const> targets,
                                 const Inputs& in,
                                 std::vector<uint8_t>& presence,
                                 double seconds) {
  std::vector<ThreadState> states;
  for (unsigned c = 0; c < kClients; ++c) {
    states.emplace_back(c);
    states[c].results.resize(in.closed[c].ops.size());
  }

  std::barrier sync(kClients + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> target{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<int>& cpus = allowed_cpus();
      if (!cpus.empty()) pin_current_thread({cpus[c % cpus.size()]});
      for (std::size_t round = 0;; ++round) {
        sync.arrive_and_wait();  // round start (or stop)
        if (stop.load()) return;
        run_round(*targets[target.load()], in.closed[c], round, states[c]);
        verify_round(in.closed[c], states[c], presence);
        sync.arrive_and_wait();  // round end
      }
    });
  }

  ClosedLoopResult r;
  r.round_ops_s.resize(targets.size());
  r.cpu_s.resize(targets.size());
  r.target_ops.resize(targets.size());
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (std::size_t round = 0;; ++round) {
    if (round >= 3 && now_ns() >= deadline) {
      stop.store(true);
      sync.arrive_and_wait();
      break;
    }
    target.store(round % targets.size());
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    // Each thread's rate over its own part of the round, summed. Timing the
    // round from the first start to the last end would let one thread that
    // lost its CPU for a while hold the other three idle at the barrier, so
    // a stolen time slice would cost four times its length.
    uint64_t ops = 0;
    double ops_s = 0;
    const std::size_t t = round % targets.size();
    for (unsigned c = 0; c < kClients; ++c) {
      const std::size_t n = in.closed[c].ops.size();
      ops += n;
      ops_s += static_cast<double>(n) * 1e9 /
               static_cast<double>(states[c].end_ns - states[c].start_ns);
      r.cpu_s[t] += states[c].cpu_s;
    }
    r.ops += ops;
    r.target_ops[t] += ops;
    r.round_ops_s[t].push_back(ops_s);
  }
  for (auto& t : threads) t.join();

  for (const ThreadState& st : states) {
    const auto& q = st.query_ns.kept();
    const auto& u = st.update_ns.kept();
    r.query_ns.insert(r.query_ns.end(), q.begin(), q.end());
    r.update_ns.insert(r.update_ns.end(), u.begin(), u.end());
    r.update_mismatches += st.mismatches;
  }
  return r;
}

}  // namespace perfbench
