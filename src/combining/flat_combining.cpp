#include "combining/flat_combining.hpp"

#include "util/lock_stats.hpp"

namespace condyn {

using combining::kDone;
using combining::kEmpty;
using combining::kPending;
using combining::Slot;

FlatCombiningDc::FlatCombiningDc(Vertex n, std::string name, bool sampling)
    : hdt_(n, sampling), name_(std::move(name)) {}

void FlatCombiningDc::combine() {
  // Two scan rounds per acquisition: the second pass picks up operations
  // published while the first was running, improving batching.
  for (int round = 0; round < 2; ++round) {
    const unsigned active = slots_.active_size();
  for (unsigned i = 0; i < active; ++i) {
      Slot& s = slots_.at(i);
      if (s.state.load(std::memory_order_seq_cst) != kPending) continue;
      if (s.batch != nullptr) {
        hdt_.apply_batch({s.batch, s.batch_len}, *s.batch_out);
      } else {
        s.result = hdt_.exec_writer(s.op);
      }
      s.state.store(kDone, std::memory_order_seq_cst);
    }
  }
}

/// Publish the already-filled slot, then spin: either another combiner
/// executes it, or this thread wins the combiner lock and scans everyone.
void FlatCombiningDc::submit_and_wait(Slot& s) {
  s.state.store(kPending, std::memory_order_seq_cst);

  const uint64_t t0 = lock_stats::now_ns();
  uint64_t combining_ns = 0;
  Backoff backoff;
  for (;;) {
    if (s.state.load(std::memory_order_seq_cst) == kDone) break;
    if (combiner_lock_.try_lock()) {
      const uint64_t c0 = lock_stats::now_ns();
      combine();
      combiner_lock_.unlock();
      combining_ns += lock_stats::now_ns() - c0;
      continue;  // our own op was executed by the scan
    }
    backoff.pause();
  }
  s.state.store(kEmpty, std::memory_order_seq_cst);
  // Active-time accounting: time spent parked behind the combiner (minus our
  // own useful combining work) is "waiting for the lock".
  const uint64_t total = lock_stats::now_ns() - t0;
  if (total > combining_ns) lock_stats::add_wait(total - combining_ns);
  lock_stats::add_acquisition(true);
}

uint64_t FlatCombiningDc::submit(const Op& op) {
  Slot& s = slots_.mine();
  s.op = op;
  submit_and_wait(s);
  return s.result;
}

BatchResult FlatCombiningDc::apply_batch(std::span<const Op> ops) {
  BatchResult r;
  r.values.resize(ops.size());
  if (ops.empty()) return r;

  if (all_reads(ops)) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      r.set_op(i, ops[i].kind, hdt_.exec_query(ops[i]));
    }
    return r;
  }

  Slot& s = slots_.mine();
  s.batch = ops.data();
  s.batch_len = static_cast<uint32_t>(ops.size());
  s.batch_out = &r;
  submit_and_wait(s);
  s.batch = nullptr;
  s.batch_out = nullptr;
  return r;
}

}  // namespace condyn
