#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/snapshot.hpp"
#include "util/ring_buffer.hpp"

namespace condyn::ingest {

/// What a producer experiences when the ring is full (DESIGN.md §11.2,
/// DC_INGEST_POLICY):
///   * kBlock      spin/yield until a slot frees — closed-loop degradation,
///                 nothing is ever lost (the default);
///   * kDrop       the op is refused (submit returns false) — open-loop
///                 load-shedding, the caller decides whether to retry;
///   * kShedReads  queries are refused, updates block — reads are
///                 re-askable, updates are the durable state.
enum class Backpressure { kBlock, kDrop, kShedReads };

/// Parse "block" / "drop" / "shed-reads" (unknown strings = kBlock).
Backpressure parse_policy(const std::string& s) noexcept;

struct IngestOptions {
  std::size_t ring_capacity = 4096;  ///< rounded up to a power of two
  std::size_t max_batch = 256;       ///< group-commit drain bound (DC_INGEST_BATCH)
  Backpressure policy = Backpressure::kBlock;  ///< DC_INGEST_POLICY
  /// Append-only journal path (DC_JOURNAL); empty = no durability. The
  /// journal is created (with header) if absent, appended to otherwise.
  std::string journal_path;
  /// fsync the journal once per group commit, before any op in the batch is
  /// acknowledged (DC_JOURNAL_FSYNC; default on when a journal is set —
  /// turning it off keeps the write() ordering but trusts the page cache).
  bool journal_fsync = true;
  /// Auto-snapshot every N applied updates (0 = only explicit snapshot_to
  /// calls); requires snapshot_path. Written atomically (tmp + rename) by
  /// the applier itself at a batch boundary.
  uint64_t snapshot_every = 0;
  std::string snapshot_path;
  /// Record per-op sojourn time (enqueue -> acknowledged) for every ring op;
  /// samples are u32 nanoseconds, collected via take_sojourn_ns().
  bool record_sojourn = false;
  /// Edges already present in `dc` when the service attaches (a prefilled
  /// or recovered structure): seeds the applier's live-edge set so
  /// snapshots include them. Must match dc's actual edge set — recover()
  /// returns exactly this list for the restart-after-crash chain.
  std::vector<Edge> initial_edges;
};

/// Options resolved from the environment (DC_INGEST_BATCH, DC_INGEST_POLICY,
/// DC_INGEST_RING, DC_JOURNAL, DC_JOURNAL_FSYNC), everything else default.
IngestOptions env_options();

/// Completion token a producer may attach to a submitted op: the applier
/// stores the op's raw value and flips `state` *after* the group commit's
/// journal write (and fsync, when enabled) — an acknowledged update is a
/// durable update. kFailed means the journal append itself failed (ENOSPC,
/// EIO): the op was neither persisted nor applied, and the service is
/// fail-stopped (every later op also fails). Caller-owned; must outlive the
/// op's application (stack allocation + wait() is the intended pattern).
struct Ticket {
  enum State : uint32_t { kPending = 0, kDone = 1, kDropped = 2, kFailed = 3 };

  std::atomic<uint32_t> state{kPending};
  std::atomic<uint64_t> value{0};

  /// Spin-then-yield until the op reaches a final state. Returns that state
  /// (kDone, kDropped, or kFailed).
  uint32_t wait() const noexcept {
    uint32_t s;
    for (int spins = 0; (s = state.load(std::memory_order_acquire)) == kPending;
         ++spins) {
      if (spins > 64) std::this_thread::yield();
    }
    return s;
  }
  void reset() noexcept {
    state.store(kPending, std::memory_order_relaxed);
    value.store(0, std::memory_order_relaxed);
  }
};

/// Aggregate counters of one service's lifetime (monotone, approximate
/// while running, exact after stop()/drain()).
struct IngestStats {
  uint64_t submitted = 0;     ///< ops accepted into the ring
  /// Ops the applier completed: applied + journaled (kDone), or refused
  /// with kFailed after a journal error. drain() waits for acked ==
  /// submitted, so both outcomes count.
  uint64_t acked = 0;
  uint64_t dropped = 0;       ///< refused by kDrop (or dropped at stop())
  uint64_t shed_reads = 0;    ///< queries refused by kShedReads
  uint64_t failed = 0;        ///< ops refused with kFailed (journal error)
  uint64_t batches = 0;       ///< group commits (apply_batch calls)
  uint64_t max_batch_fill = 0;  ///< largest single drain
  uint64_t journal_records = 0;
  uint64_t fsyncs = 0;
  uint64_t journal_errors = 0;  ///< failed journal appends/flushes
  uint64_t snapshots = 0;
  uint64_t applied_seq = 0;   ///< journal seq of the last applied update
  /// Ops accepted into the ring but not yet acknowledged — the backlog a
  /// health probe reports (the server's status frame, DESIGN.md §12.3) and
  /// the headroom signal admission control sheds against. Computed from the
  /// submitted/acked counters at stats() time, saturating at 0 (the two are
  /// sampled independently, so a racing reader could otherwise underflow).
  uint64_t queue_depth = 0;
};

/// Group-commit ingest front-end over any DynamicConnectivity (DESIGN.md
/// §11): producers push ops into a bounded MPSC ring; one applier thread
/// drains up to max_batch ops per pass, applies them through apply_batch,
/// appends the batch's updates to the journal with a single write (+ one
/// fsync), and only then acknowledges tickets — group commit amortizes both
/// the structure's synchronization and the durability syscall across the
/// batch. The applier also owns the live-edge set, so snapshots are taken
/// at batch boundaries with no structure cooperation beyond quiesce().
class IngestService {
 public:
  /// Starts the applier thread. `dc` must outlive the service.
  explicit IngestService(DynamicConnectivity& dc, IngestOptions opts = {});
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Submit one op. `ticket` (optional) is completed when the op is applied.
  /// Returns false when the op was refused — kDrop/kShedReads with a full
  /// ring, or a stop() already in progress — in which case the op was *not*
  /// enqueued and the ticket (if any) is marked kDropped.
  bool submit(const Op& op, Ticket* ticket = nullptr);

  /// Block until every op accepted so far has reached a final state (kDone,
  /// or kFailed after a journal error).
  void drain();

  /// Drain, flush, and join the applier. A submit() blocked on a full ring
  /// returns false (ticket kDropped) instead of waiting forever, and any op
  /// still in the ring after the applier exits is dropped the same way.
  /// For exactly-once accounting, join producers before calling stop(): a
  /// submit racing the shutdown may be refused. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Park the applier at the next batch boundary (returns once parked; the
  /// ring keeps accepting ops, they just wait). Refcounted: the applier
  /// resumes draining when every pause() has been matched by a resume().
  void pause();
  void resume();

  /// Write a point-in-time snapshot of the live edge set (atomic tmp+rename,
  /// fsynced) and return the applied_seq it captures. Safe to call from any
  /// thread and serialized against other snapshot_to calls: the applier is
  /// parked at a batch boundary for the duration, so the snapshot is exactly
  /// "every acknowledged update, nothing in flight".
  uint64_t snapshot_to(const std::string& path);

  IngestStats stats() const;

  /// Move out the sojourn samples collected so far (record_sojourn only).
  std::vector<uint32_t> take_sojourn_ns();

  const IngestOptions& options() const noexcept { return opts_; }

 private:
  struct Req {
    Op op;
    Ticket* ticket = nullptr;
    uint64_t t_enqueue_ns = 0;
  };

  bool submit_impl(const Op& op, Ticket* ticket);
  void applier_main();
  void apply_group(std::vector<Req>& reqs);
  void write_snapshot_locked(const std::string& path);
  void open_journal();

  DynamicConnectivity& dc_;
  IngestOptions opts_;
  MpscRingBuffer<Req> ring_;

  // Producer-side counters (multi-writer).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> shed_reads_{0};
  std::atomic<uint64_t> inflight_{0};  ///< submit() calls currently running
  // Applier-side counters: written only by the applier thread, read via
  // stats() — atomics with relaxed ordering keep that race benign.
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> max_batch_fill_{0};
  std::atomic<uint64_t> journal_records_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> journal_errors_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> applied_seq_{0};

  // Applier-private state; other threads may only look while the applier is
  // parked (pause()/park_mu_ provides the happens-before).
  std::unordered_set<uint64_t> live_edges_;  ///< Edge::key() of present edges
  uint64_t seq_ = 0;                         ///< last assigned journal seq
  uint64_t applied_updates_ = 0;             ///< drives snapshot_every
  uint64_t last_snapshot_updates_ = 0;
  std::FILE* journal_ = nullptr;
  bool journal_broken_ = false;  ///< sticky: a journal append failed
  std::vector<char> journal_buf_;
  std::vector<Op> ops_scratch_;

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  int pause_depth_ = 0;          ///< outstanding pause() calls (refcount)
  bool parked_ = false;
  bool applier_running_ = false;  ///< cleared by the applier on exit
  std::atomic<bool> stop_{false};

  std::mutex snapshot_mu_;  ///< serializes snapshot_to callers

  std::mutex sojourn_mu_;
  std::vector<uint32_t> sojourn_ns_;

  std::thread applier_;
};

/// Result of one recovery (load snapshot -> replay journal tail).
struct RecoveryResult {
  uint64_t snapshot_edges = 0;    ///< adds replayed from the snapshot
  uint64_t journal_records = 0;   ///< records decoded from the journal
  uint64_t replayed = 0;          ///< records with seq > snapshot.applied_seq
  uint64_t applied_seq = 0;       ///< seq of the recovered state
  bool truncated_tail = false;    ///< journal ended in a torn/corrupt record
  /// The recovered live edge set — feed it to IngestOptions::initial_edges
  /// when re-attaching a service to the recovered structure.
  std::vector<Edge> live_edges;
};

/// Rebuild `dc` (which must be empty and sized >= the persisted
/// num_vertices) from decoded durability state: apply the snapshot's edge
/// set, then every journal record with seq > snapshot.applied_seq, in
/// apply_batch chunks. Pass snap == nullptr when no snapshot exists
/// (recovery from the journal alone).
RecoveryResult recover(DynamicConnectivity& dc, const io::Snapshot* snap,
                       const io::JournalData& journal);

/// File convenience: missing snapshot file -> journal-only recovery;
/// missing journal file -> snapshot-only. Throws std::runtime_error on a
/// corrupt snapshot or journal *header* (torn journal tails are tolerated
/// by design).
RecoveryResult recover_files(DynamicConnectivity& dc,
                             const std::string& snapshot_path,
                             const std::string& journal_path);

}  // namespace condyn::ingest
