#include "harness/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/factory.hpp"
#include "harness/report.hpp"
#include "util/random.hpp"

namespace condyn::harness {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Sense-reversing spin barrier for phase changes (start / measure / stop).
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned n) : n_(n) {}
  void arrive_and_wait() noexcept {
    const uint32_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
    } else {
      while (gen_.load(std::memory_order_acquire) == gen) {
        std::this_thread::yield();
      }
    }
  }

 private:
  unsigned n_;
  std::atomic<uint32_t> count_{0};
  std::atomic<uint32_t> gen_{0};
};

struct ThreadTotals {
  uint64_t ops = 0;
  uint64_t by_kind[kNumOpKinds] = {};  ///< measured ops split by OpKind
  op_stats::Counters op_counters;
  lock_stats::Counters lock_counters;
  pool_stats::Counters mem_counters;
  uint64_t batches = 0;
  uint64_t batch_ns_total = 0;
  uint64_t batch_ns_max = 0;
  // run_finite only: this worker's first op and last completion.
  Clock::time_point first_op, last_done;
  // caps.tracks_latency only: one sample per measured op. u32 nanoseconds
  // caps a sample at ~4.3 s — far beyond any single connectivity op — and
  // halves the footprint of paper-sized traces.
  std::vector<uint32_t> latency_ns;
};

uint32_t clamped_ns(uint64_t ns) noexcept {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

RunResult combine(std::vector<ThreadTotals>& totals, double elapsed_ms,
                  unsigned threads) {
  RunResult r;
  r.elapsed_ms = elapsed_ms;
  uint64_t wait_ns = 0;
  uint64_t batch_ns_total = 0;
  uint64_t batch_ns_max = 0;
  for (const ThreadTotals& t : totals) {
    r.total_ops += t.ops;
    for (std::size_t k = 0; k < kNumOpKinds; ++k)
      r.ops_by_kind[k] += t.by_kind[k];
    r.op_counters += t.op_counters;
    r.mem_counters += t.mem_counters;
    r.lock_counters.wait_ns += t.lock_counters.wait_ns;
    r.lock_counters.acquisitions += t.lock_counters.acquisitions;
    r.lock_counters.contended += t.lock_counters.contended;
    wait_ns += t.lock_counters.wait_ns;
    r.batches += t.batches;
    batch_ns_total += t.batch_ns_total;
    batch_ns_max = std::max(batch_ns_max, t.batch_ns_max);
  }
  r.ops_per_ms = elapsed_ms > 0 ? r.total_ops / elapsed_ms : 0;
  if (r.batches > 0) {
    r.batch_latency_us_avg =
        static_cast<double>(batch_ns_total) / r.batches / 1e3;
    r.batch_latency_us_max = batch_ns_max / 1e3;
  }
  const double total_ns = elapsed_ms * 1e6 * threads;
  r.active_time_percent =
      total_ns > 0
          ? 100.0 * (total_ns - std::min<double>(wait_ns, total_ns)) / total_ns
          : 100.0;

  // Per-op latency distribution (tracks_latency scenarios): merge every
  // worker's samples, sort once, read the percentiles off the order
  // statistics. Worker vectors are moved from — totals is dead after this.
  std::vector<uint32_t> samples;
  for (ThreadTotals& t : totals) {
    if (samples.empty()) {
      samples = std::move(t.latency_ns);
    } else {
      samples.insert(samples.end(), t.latency_ns.begin(), t.latency_ns.end());
    }
  }
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    uint64_t sum = 0;
    for (uint32_t ns : samples) sum += ns;
    r.latency_samples = samples.size();
    r.latency_us_avg = static_cast<double>(sum) / samples.size() / 1e3;
    r.latency_us_p50 = quantile(samples, 0.50) / 1e3;
    r.latency_us_p90 = quantile(samples, 0.90) / 1e3;
    r.latency_us_p99 = quantile(samples, 0.99) / 1e3;
    r.latency_us_max = samples.back() / 1e3;
  }
  return r;
}

void count_kind(ThreadTotals& t, OpKind kind) noexcept {
  ++t.by_kind[static_cast<std::size_t>(kind)];
}

/// One step of a worker, shared by both drivers: the next op, or with
/// caps.batched the next chunk of up to `batch_size` ops through apply_batch,
/// counted into `mine` (batch latency when batched, per-op latency when
/// caps.tracks_latency). Returns false once the stream is exhausted.
bool measured_step(const ScenarioCaps& caps, DynamicConnectivity& dc,
                   OpStream& stream, std::vector<Op>& buf,
                   std::size_t batch_size, ThreadTotals& mine) {
  if (caps.batched) {
    buf.clear();
    Op op;
    while (buf.size() < batch_size && stream.next(op)) buf.push_back(op);
    if (buf.empty()) return false;
    const uint64_t t0 = lock_stats::now_ns();
    dc.apply_batch(buf);
    const uint64_t ns = lock_stats::now_ns() - t0;
    mine.ops += buf.size();
    for (const Op& o : buf) count_kind(mine, o.kind);
    ++mine.batches;
    mine.batch_ns_total += ns;
    mine.batch_ns_max = std::max(mine.batch_ns_max, ns);
    return true;
  }
  Op op;
  if (!stream.next(op)) return false;
  if (caps.tracks_latency) {
    const uint64_t t0 = lock_stats::now_ns();
    exec_single(dc, op);
    mine.latency_ns.push_back(clamped_ns(lock_stats::now_ns() - t0));
  } else {
    exec_single(dc, op);
  }
  ++mine.ops;
  count_kind(mine, op.kind);
  return true;
}

/// Measurement starts with clean per-thread counters.
void reset_counters() {
  op_stats::reset_local();
  lock_stats::reset_local();
  pool_stats::reset_local();
}

void collect_counters(ThreadTotals& mine) {
  mine.op_counters = op_stats::local();
  mine.lock_counters = lock_stats::local();
  mine.mem_counters = pool_stats::local();
}

/// Timed-window driver for infinite streams: warmup, then a measured window
/// with clean per-thread counters.
RunResult run_timed(const ScenarioInfo& s, DynamicConnectivity& dc,
                    const Graph& g, const RunConfig& cfg) {
  std::atomic<int> phase{0};  // 0 = warmup, 1 = measure, 2 = stop
  SpinBarrier start(cfg.threads + 1);
  std::vector<ThreadTotals> totals(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);

  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      const std::unique_ptr<OpStream> stream = s.make_stream(g, cfg, t);
      std::vector<Op> buf;
      ThreadTotals warmup;  // discarded
      start.arrive_and_wait();
      while (phase.load(std::memory_order_acquire) == 0 &&
             measured_step(s.caps, dc, *stream, buf, cfg.batch_size, warmup)) {
      }
      reset_counters();
      ThreadTotals& mine = totals[t];
      while (phase.load(std::memory_order_acquire) == 1 &&
             measured_step(s.caps, dc, *stream, buf, cfg.batch_size, mine)) {
      }
      collect_counters(mine);
    });
  }

  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
  const auto t0 = Clock::now();
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.measure_ms));
  phase.store(2, std::memory_order_release);
  const double elapsed = ms_since(t0);
  for (auto& w : workers) w.join();
  return combine(totals, elapsed, cfg.threads);
}

/// Finite driver: each worker drains its stream to exhaustion; the measured
/// window runs from the earliest worker's first op to the latest worker's
/// last completion (no warmup), each stamped by the worker itself, so a
/// main thread scheduled late cannot shrink it. Stream construction happens
/// before the start barrier and is excluded from timing.
RunResult run_finite(const ScenarioInfo& s, DynamicConnectivity& dc,
                     const Graph& g, const RunConfig& cfg) {
  SpinBarrier start(cfg.threads + 1);
  std::vector<ThreadTotals> totals(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      const std::unique_ptr<OpStream> stream = s.make_stream(g, cfg, t);
      std::vector<Op> buf;
      start.arrive_and_wait();
      reset_counters();
      ThreadTotals& mine = totals[t];
      mine.first_op = Clock::now();
      while (measured_step(s.caps, dc, *stream, buf, cfg.batch_size, mine)) {
      }
      mine.last_done = Clock::now();
      collect_counters(mine);
    });
  }
  start.arrive_and_wait();
  for (auto& w : workers) w.join();
  Clock::time_point first = totals.front().first_op;
  Clock::time_point last = totals.front().last_done;
  for (const ThreadTotals& t : totals) {
    first = std::min(first, t.first_op);
    last = std::max(last, t.last_done);
  }
  const double elapsed =
      std::chrono::duration<double, std::milli>(last - first).count();
  return combine(totals, elapsed, cfg.threads);
}

}  // namespace

RunConfig validated(const RunConfig& cfg) {
  if (cfg.threads == 0) {
    throw std::invalid_argument("RunConfig: threads must be >= 1");
  }
  if (cfg.measure_ms <= 0) {
    throw std::invalid_argument("RunConfig: measure_ms must be positive");
  }
  if (cfg.warmup_ms < 0) {
    throw std::invalid_argument("RunConfig: warmup_ms must be >= 0");
  }
  RunConfig out = cfg;
  out.read_percent = std::clamp(out.read_percent, 0, 100);
  if (out.batch_size == 0) out.batch_size = 1;
  return out;
}

RunResult run_scenario(const ScenarioInfo& s, DynamicConnectivity& dc,
                       const Graph& g, const RunConfig& raw) {
  RunConfig cfg = validated(raw);
  if (s.caps.needs_trace && cfg.preloaded_trace == nullptr) {
    // Load the trace once here, for two reasons: trace problems surface on
    // the caller thread (an exception escaping a worker's stream factory
    // would terminate the process), and the workers then stripe the shared
    // copy instead of re-reading the file per thread.
    if (cfg.trace_path.empty()) {
      throw std::invalid_argument(std::string(s.name) +
                                  ": RunConfig::trace_path is empty "
                                  "(set DC_BENCH_TRACE)");
    }
    cfg.preloaded_trace =
        std::make_shared<const io::Trace>(io::load_trace_file(cfg.trace_path));
  }
  if (s.caps.needs_trace &&
      cfg.preloaded_trace->num_vertices > dc.num_vertices()) {
    throw std::invalid_argument(
        cfg.trace_path + " addresses " +
        std::to_string(cfg.preloaded_trace->num_vertices) +
        " vertices but the structure only has " +
        std::to_string(dc.num_vertices()));
  }
  const std::vector<Op> pre = prefill_ops(s.caps.prefill, g, cfg.seed);
  if (s.caps.batched) {
    // Pre-fill through the batch path too: it exercises apply_batch before
    // measurement starts and amortizes the lock for the coarse variants.
    for (std::size_t i = 0; i < pre.size(); i += cfg.batch_size) {
      dc.apply_batch(std::span<const Op>(pre).subspan(
          i, std::min(cfg.batch_size, pre.size() - i)));
    }
  } else {
    for (const Op& op : pre) dc.add_edge(op.u, op.v);
  }
  return s.caps.finite ? run_finite(s, dc, g, cfg) : run_timed(s, dc, g, cfg);
}

namespace {

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtoull(s, nullptr, 10) : fallback;
}

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtod(s, nullptr) : fallback;
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/// A sane, overflow-free numeric env entry (≤ 9 digits keeps the value
/// within every integer type std::stoul/std::stoi feed below).
bool all_digits(const std::string& s) {
  if (s.empty() || s.size() > 9) return false;
  for (char c : s)
    if (c < '0' || c > '9') return false;
  return true;
}

std::invalid_argument unknown_entry(const char* knob, const char* what,
                                    const std::string& item) {
  return std::invalid_argument(std::string(knob) + ": unknown " + what +
                               " \"" + item + "\" (see bench_suite --list)");
}

}  // namespace

std::vector<std::string> env_list(const char* name,
                                  const std::string& fallback) {
  std::vector<std::string> out;
  const char* s = std::getenv(name);
  std::stringstream ss(s != nullptr && *s != '\0' ? std::string(s) : fallback);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trimmed(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

EnvConfig env_config() {
  EnvConfig cfg;
  cfg.warmup_ms = static_cast<int>(env_u64("DC_BENCH_WARMUP", 100));
  cfg.measure_ms = static_cast<int>(env_u64("DC_BENCH_MILLIS", 300));
  cfg.scale = env_double("DC_BENCH_SCALE", 0.05);
  cfg.seed = env_u64("DC_BENCH_SEED", 42);
  cfg.full = env_u64("DC_BENCH_FULL", 0) != 0;
  if (const char* s = std::getenv("DC_BENCH_TRACE"); s != nullptr && *s) {
    cfg.trace_path = s;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::string& item : env_list("DC_BENCH_THREADS")) {
    if (!all_digits(item)) continue;  // malformed entries are skipped
    const unsigned t = static_cast<unsigned>(std::stoul(item));
    if (t > 0) cfg.thread_counts.push_back(t);
  }
  if (cfg.thread_counts.empty()) {
    for (unsigned t = 1; t <= 2 * hw; t *= 2) cfg.thread_counts.push_back(t);
  }

  for (const std::string& item : env_list("DC_BENCH_VARIANTS")) {
    const VariantInfo* v = all_digits(item) ? find_variant(std::stoi(item))
                                            : find_variant(item);
    if (v == nullptr) throw unknown_entry("DC_BENCH_VARIANTS", "variant", item);
    cfg.variants.push_back(v->id);
  }

  for (const std::string& item : env_list("DC_BENCH_SCENARIOS")) {
    const ScenarioInfo* s = all_digits(item) ? find_scenario(std::stoi(item))
                                             : find_scenario(item);
    if (s == nullptr)
      throw unknown_entry("DC_BENCH_SCENARIOS", "scenario", item);
    cfg.scenarios.push_back(s->name);
  }

  // One run sweeps every listed size on the batch scenarios.
  for (const std::string& item : env_list("DC_BENCH_BATCH_SIZES")) {
    if (!all_digits(item)) continue;  // malformed entries are skipped
    const std::size_t b = static_cast<std::size_t>(std::stoul(item));
    if (b > 0) cfg.batch_sizes.push_back(b);
  }
  if (cfg.batch_sizes.empty()) cfg.batch_sizes = {1, 16, 64, 256};

  for (const std::string& item : env_list("DC_BENCH_READS")) {
    if (!all_digits(item)) continue;
    const int r = std::stoi(item);
    if (r >= 0 && r <= 100) cfg.read_percents.push_back(r);
  }
  if (cfg.read_percents.empty()) cfg.read_percents = {80, 99};
  return cfg;
}

}  // namespace condyn::harness
