#include "traced_dc.hpp"

#include <cstring>
#include <tuple>
#include <type_traits>

#include "common.hpp"

namespace perfbench {

namespace {

/// The three counter structs are plain aggregates of uint64_t fields; view
/// them as arrays to subtract and add field by field.
template <typename T>
void add_delta(T& acc, const T& after, const T& before) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  constexpr std::size_t n = sizeof(T) / 8;
  uint64_t a[n], x[n], y[n];
  std::memcpy(a, &acc, sizeof(T));
  std::memcpy(x, &after, sizeof(T));
  std::memcpy(y, &before, sizeof(T));
  for (std::size_t i = 0; i < n; ++i) a[i] += x[i] - y[i];
  std::memcpy(&acc, a, sizeof(T));
}

template <typename T>
void add_all(T& acc, const T& o) {
  add_delta(acc, o, T{});
}

struct Counters {
  condyn::op_stats::Counters ops;
  condyn::lock_stats::Counters locks;
  condyn::pool_stats::Counters mem;

  static Counters read() {
    return {condyn::op_stats::local(), condyn::lock_stats::local(),
            condyn::pool_stats::local()};
  }
};

std::atomic<uint64_t> g_instances{0};

struct SlotCache {
  uint64_t instance = 0;
  void* slot = nullptr;
};
thread_local SlotCache t_cache;

}  // namespace

CallTotals& CallTotals::operator+=(const CallTotals& o) {
  add_all(ops, o.ops);
  add_all(locks, o.locks);
  add_all(mem, o.mem);
  calls += o.calls;
  ops_count += o.ops_count;
  busy_ns += o.busy_ns;
  return *this;
}

TracedDc::TracedDc(condyn::DynamicConnectivity& inner)
    : inner_(inner), instance_(++g_instances) {}

TracedDc::~TracedDc() = default;

TracedDc::Slot& TracedDc::slot() {
  if (t_cache.instance != instance_) {
    std::lock_guard lk(mu_);
    slots_.push_back(std::make_unique<Slot>());
    t_cache = {instance_, slots_.back().get()};
  }
  return *static_cast<Slot*>(t_cache.slot);
}

template <typename F>
auto TracedDc::traced(uint64_t nops, F&& f) {
  Slot& s = slot();
  const Counters before = Counters::read();
  const int64_t t0 = now_ns();
  auto result = f();
  const int64_t t1 = now_ns();
  const Counters after = Counters::read();
  add_delta(s.totals.ops, after.ops, before.ops);
  add_delta(s.totals.locks, after.locks, before.locks);
  add_delta(s.totals.mem, after.mem, before.mem);
  ++s.totals.calls;
  s.totals.ops_count += nops;
  s.totals.busy_ns += static_cast<uint64_t>(t1 - t0);
  return std::tuple{std::move(result), t0, t1};
}

bool TracedDc::add_edge(condyn::Vertex u, condyn::Vertex v) {
  return std::get<0>(traced(1, [&] { return inner_.add_edge(u, v); }));
}
bool TracedDc::remove_edge(condyn::Vertex u, condyn::Vertex v) {
  return std::get<0>(traced(1, [&] { return inner_.remove_edge(u, v); }));
}
bool TracedDc::connected(condyn::Vertex u, condyn::Vertex v) {
  return std::get<0>(traced(1, [&] { return inner_.connected(u, v); }));
}
uint64_t TracedDc::component_size(condyn::Vertex u) {
  return std::get<0>(traced(1, [&] { return inner_.component_size(u); }));
}
condyn::Vertex TracedDc::representative(condyn::Vertex u) {
  return std::get<0>(traced(1, [&] { return inner_.representative(u); }));
}
condyn::ComponentsSnapshot TracedDc::components() {
  return std::get<0>(traced(inner_.num_vertices(), [&] { return inner_.components(); }));
}

condyn::BatchResult TracedDc::apply_batch(std::span<const condyn::Op> ops) {
  if (expect_applier_.exchange(false)) slot().applier = true;
  auto [result, t0, t1] =
      traced(ops.size(), [&] { return inner_.apply_batch(ops); });
  slot().batches.push_back({t0, static_cast<uint32_t>(t1 - t0),
                            static_cast<uint32_t>(ops.size())});
  return std::move(result);
}

condyn::Vertex TracedDc::num_vertices() const { return inner_.num_vertices(); }
void TracedDc::quiesce() { inner_.quiesce(); }
std::string TracedDc::name() const { return inner_.name(); }

void TracedDc::expect_applier() { expect_applier_.store(true); }

TracedDc::Report TracedDc::report() const {
  std::lock_guard lk(mu_);
  Report r;
  for (const auto& s : slots_) {
    r.totals += s->totals;
    auto& dst = s->applier ? r.applier_batches : r.inline_batches;
    dst.insert(dst.end(), s->batches.begin(), s->batches.end());
  }
  return r;
}

void TracedDc::reset() {
  std::lock_guard lk(mu_);
  for (auto& s : slots_) {
    s->totals = CallTotals{};
    s->batches.clear();
  }
}

}  // namespace perfbench
