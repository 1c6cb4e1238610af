#include "combining/parallel_combining.hpp"

#include "core/stats.hpp"
#include "util/lock_stats.hpp"

namespace condyn {

using combining::kDone;
using combining::kEmpty;
using combining::kGo;
using combining::kPending;
using combining::Slot;

ParallelCombiningDc::ParallelCombiningDc(Vertex n, std::string name,
                                         bool sampling)
    : hdt_(n, sampling), name_(std::move(name)) {}

/// Execute a read-only slot (single query or query-only batch) on the
/// quiescent structure — shared by the GO read phase (owner side) and the
/// combiner running its own slot.
void ParallelCombiningDc::run_reads(Slot& s) {
  // Only read-only slots enter this phase.
  if (s.batch != nullptr) {
    op_stats::local().reads += s.batch_len;
    for (uint32_t i = 0; i < s.batch_len; ++i)
      s.batch_out->set_op(i, s.batch[i].kind, hdt_.exec_writer(s.batch[i]));
  } else {
    ++op_stats::local().reads;
    s.result = hdt_.exec_writer(s.op);
  }
}

void ParallelCombiningDc::combine() {
  // Phase 1 — snapshot the batch. Reads are released to run concurrently on
  // the quiescent structure (their owners execute them); updates — including
  // published whole batches, which may mix reads and updates — are
  // remembered for phase 2.
  unsigned updates[combining::SlotArray::size()];
  unsigned n_updates = 0;
  unsigned reads_in_flight[combining::SlotArray::size()];
  unsigned n_reads = 0;

  const unsigned me = thread_index() % combining::SlotArray::size();
  const unsigned active = slots_.active_size();
  for (unsigned i = 0; i < active; ++i) {
    Slot& s = slots_.at(i);
    if (s.state.load(std::memory_order_seq_cst) != kPending) continue;
    const bool read_only =
        s.batch != nullptr ? s.batch_read_only : is_query(s.op.kind);
    if (read_only) {
      if (i == me) {
        // The combiner's own read(s): executing them via GO would deadlock
        // the drain loop below, so run directly (structure is quiescent).
        run_reads(s);
        s.state.store(kDone, std::memory_order_seq_cst);
      } else {
        s.state.store(kGo, std::memory_order_seq_cst);
        reads_in_flight[n_reads++] = i;
      }
    } else {
      updates[n_updates++] = i;
    }
  }

  // Wait for the parallel read phase to drain before mutating anything.
  Backoff backoff;
  for (unsigned k = 0; k < n_reads; ++k) {
    Slot& s = slots_.at(reads_in_flight[k]);
    while (s.state.load(std::memory_order_seq_cst) == kGo) backoff.pause();
  }

  // Phase 2 — apply updates sequentially (single writer).
  for (unsigned k = 0; k < n_updates; ++k) {
    Slot& s = slots_.at(updates[k]);
    if (s.batch != nullptr) {
      hdt_.apply_batch({s.batch, s.batch_len}, *s.batch_out);
    } else {
      s.result = hdt_.exec_writer(s.op);
    }
    s.state.store(kDone, std::memory_order_seq_cst);
  }
}

/// Publish the already-filled slot and spin until it is executed: by a
/// combiner, by this thread's own combining pass, or (reads only) by this
/// thread during a GO read phase.
void ParallelCombiningDc::submit_and_wait(Slot& s) {
  s.state.store(kPending, std::memory_order_seq_cst);

  const uint64_t t0 = lock_stats::now_ns();
  uint64_t useful_ns = 0;
  Backoff backoff;
  for (;;) {
    const uint32_t st = s.state.load(std::memory_order_seq_cst);
    if (st == kDone) break;
    if (st == kGo) {
      // Parallel read phase: execute our own query / read-only batch on the
      // quiescent structure; the combiner is blocked until every GO slot
      // drains.
      const uint64_t c0 = lock_stats::now_ns();
      run_reads(s);
      s.state.store(kDone, std::memory_order_seq_cst);
      useful_ns += lock_stats::now_ns() - c0;
      break;
    }
    if (combiner_lock_.try_lock()) {
      const uint64_t c0 = lock_stats::now_ns();
      combine();
      combiner_lock_.unlock();
      useful_ns += lock_stats::now_ns() - c0;
      continue;
    }
    backoff.pause();
  }
  s.state.store(kEmpty, std::memory_order_seq_cst);
  const uint64_t total = lock_stats::now_ns() - t0;
  if (total > useful_ns) lock_stats::add_wait(total - useful_ns);
  lock_stats::add_acquisition(true);
}

uint64_t ParallelCombiningDc::submit(const Op& op) {
  Slot& s = slots_.mine();
  s.op = op;
  submit_and_wait(s);
  return s.result;
}

BatchResult ParallelCombiningDc::apply_batch(std::span<const Op> ops) {
  BatchResult r;
  r.values.resize(ops.size());
  if (ops.empty()) return r;
  Slot& s = slots_.mine();
  s.batch = ops.data();
  s.batch_len = static_cast<uint32_t>(ops.size());
  s.batch_out = &r;
  s.batch_read_only = all_reads(ops);  // eligible for the parallel read phase
  submit_and_wait(s);
  s.batch = nullptr;
  s.batch_out = nullptr;
  return r;
}

}  // namespace condyn
