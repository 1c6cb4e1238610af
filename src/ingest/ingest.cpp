#include "ingest/ingest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/lock_stats.hpp"

namespace condyn::ingest {

namespace {

uint32_t clamped_u32(uint64_t ns) noexcept {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

}  // namespace

Backpressure parse_policy(const std::string& s) noexcept {
  if (s == "drop") return Backpressure::kDrop;
  if (s == "shed-reads") return Backpressure::kShedReads;
  return Backpressure::kBlock;
}

IngestOptions env_options() {
  IngestOptions o;
  const auto u64 = [](const char* name, uint64_t fallback) {
    const char* s = std::getenv(name);
    return s != nullptr && *s != '\0' ? std::strtoull(s, nullptr, 10)
                                      : fallback;
  };
  o.max_batch = std::max<uint64_t>(1, u64("DC_INGEST_BATCH", 256));
  o.ring_capacity = std::max<uint64_t>(2, u64("DC_INGEST_RING", 4096));
  if (const char* s = std::getenv("DC_INGEST_POLICY"); s != nullptr && *s) {
    o.policy = parse_policy(s);
  }
  if (const char* s = std::getenv("DC_JOURNAL"); s != nullptr && *s) {
    o.journal_path = s;
  }
  o.journal_fsync = u64("DC_JOURNAL_FSYNC", 1) != 0;
  return o;
}

IngestService::IngestService(DynamicConnectivity& dc, IngestOptions opts)
    : dc_(dc), opts_(std::move(opts)), ring_(opts_.ring_capacity) {
  for (const Edge& e : opts_.initial_edges) live_edges_.insert(e.key());
  open_journal();
  applier_running_ = true;
  applier_ = std::thread([this] { applier_main(); });
}

IngestService::~IngestService() { stop(); }

void IngestService::open_journal() {
  if (opts_.journal_path.empty()) return;
  const std::string& path = opts_.journal_path;
  const bool exists = std::ifstream(path, std::ios::binary).good();
  if (exists) {
    // Attach to an existing journal: continue its seq numbering and chop
    // any torn tail first — those bytes were never acknowledged, and
    // appending after them would poison every later record for the
    // tolerant loader.
    const io::JournalData j = io::load_journal_file(path);
    if (j.num_vertices != dc_.num_vertices()) {
      throw std::runtime_error(
          "ingest: journal " + path + " addresses " +
          std::to_string(j.num_vertices) + " vertices, structure has " +
          std::to_string(dc_.num_vertices()));
    }
    if (j.truncated_tail) {
      const auto clean = static_cast<off_t>(
          io::kJournalHeaderBytes +
          j.records.size() * io::kJournalRecordBytes);
      if (::truncate(path.c_str(), clean) != 0) {
        throw std::runtime_error("ingest: cannot truncate torn tail of " +
                                 path);
      }
    }
    if (!j.records.empty()) seq_ = j.records.back().seq;
    applied_seq_.store(seq_, std::memory_order_relaxed);
    journal_ = std::fopen(path.c_str(), "ab");
  } else {
    journal_ = std::fopen(path.c_str(), "wb");
    if (journal_ != nullptr) {
      char header[io::kJournalHeaderBytes];
      io::encode_journal_header(header, dc_.num_vertices());
      if (std::fwrite(header, 1, sizeof header, journal_) != sizeof header ||
          std::fflush(journal_) != 0 ||
          (opts_.journal_fsync && ::fsync(fileno(journal_)) != 0)) {
        std::fclose(journal_);
        journal_ = nullptr;
        throw std::runtime_error("ingest: cannot write journal header to " +
                                 path);
      }
    }
  }
  if (journal_ == nullptr) {
    throw std::runtime_error("ingest: cannot open journal " + path);
  }
}

bool IngestService::submit(const Op& op, Ticket* ticket) {
  // In-flight guard for stop(): a submit past the entry stop_ check may
  // still push into the ring, so shutdown keeps draining until every
  // in-flight call has returned — no op or ticket is ever stranded.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  const bool accepted = submit_impl(op, ticket);
  inflight_.fetch_sub(1, std::memory_order_release);
  return accepted;
}

bool IngestService::submit_impl(const Op& op, Ticket* ticket) {
  // Counted before the push so drain() can never observe acked_ overtaking
  // submitted_ and return while this op is still in the ring; un-counted on
  // every refusal path below.
  submitted_.fetch_add(1, std::memory_order_release);
  const auto refuse = [&](std::atomic<uint64_t>& counter) {
    submitted_.fetch_sub(1, std::memory_order_release);
    counter.fetch_add(1, std::memory_order_relaxed);
    if (ticket != nullptr) {
      ticket->state.store(Ticket::kDropped, std::memory_order_release);
    }
    return false;
  };
  if (stop_.load(std::memory_order_acquire)) return refuse(dropped_);
  Req r{op, ticket,
        opts_.record_sojourn ? lock_stats::now_ns() : uint64_t{0}};
  if (!ring_.try_push(r)) {
    const bool shed_this =
        opts_.policy == Backpressure::kDrop ||
        (opts_.policy == Backpressure::kShedReads && is_query(op.kind));
    if (shed_this) {
      return refuse(opts_.policy == Backpressure::kDrop ? dropped_
                                                        : shed_reads_);
    }
    // kBlock (and kShedReads updates): closed-loop degradation — wait for
    // the applier to free a slot. A stop() in the meantime would leave the
    // applier gone and this loop spinning forever, so it refuses instead.
    for (int spins = 0; !ring_.try_push(r); ++spins) {
      if (stop_.load(std::memory_order_acquire)) return refuse(dropped_);
      if (spins > 64) std::this_thread::yield();
    }
  }
  return true;
}

void IngestService::drain() {
  while (acked_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void IngestService::stop() {
  if (!applier_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  {
    // An applier between its park check and park_cv_.wait would miss a bare
    // notify; taking the lock orders the store before its predicate check.
    std::lock_guard lk(park_mu_);
  }
  park_cv_.notify_all();
  applier_.join();
  // A producer that pushed between the applier's final drain and its exit
  // (or while it was parked) left ops behind; they were never applied, so
  // drop them — tickets terminate, and submitted_ is un-counted so drain()
  // does too. Loop until no submit is in flight: one that already passed
  // its stop_ check can still push into a slot this very drain frees, so a
  // single pass could strand it. Reading inflight_ *before* draining makes
  // the exit sound — every push by an exited submit is visible to the final
  // pop_batch pass.
  std::vector<Req> leftovers;
  for (;;) {
    const bool quiesced = inflight_.load(std::memory_order_acquire) == 0;
    while (ring_.pop_batch(leftovers, opts_.max_batch) > 0) {
      for (const Req& r : leftovers) {
        if (r.ticket != nullptr) {
          r.ticket->state.store(Ticket::kDropped, std::memory_order_release);
        }
      }
      dropped_.fetch_add(leftovers.size(), std::memory_order_relaxed);
      submitted_.fetch_sub(leftovers.size(), std::memory_order_release);
      leftovers.clear();
    }
    if (quiesced) break;
    std::this_thread::yield();
  }
  if (journal_ != nullptr) {
    if (std::fflush(journal_) != 0 ||
        (opts_.journal_fsync && ::fsync(fileno(journal_)) != 0)) {
      // Every acked batch was already flushed (and fsynced) by apply_group,
      // so this is only the close-out of an already-failed stream; stop()
      // runs on the destructor path and must not throw.
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    std::fclose(journal_);
    journal_ = nullptr;
  }
}

void IngestService::pause() {
  std::unique_lock lk(park_mu_);
  ++pause_depth_;
  park_cv_.wait(lk, [&] { return parked_ || !applier_running_; });
}

void IngestService::resume() {
  {
    std::lock_guard lk(park_mu_);
    if (pause_depth_ > 0) --pause_depth_;
  }
  park_cv_.notify_all();
}

uint64_t IngestService::snapshot_to(const std::string& path) {
  // Serialized: two concurrent callers would otherwise race on the same
  // tmp file, and one's resume() would unpark the applier while the other
  // is still reading live_edges_.
  std::lock_guard snap_lk(snapshot_mu_);
  if (applier_.joinable()) {
    pause();  // parked at a batch boundary: nothing is in flight
    write_snapshot_locked(path);
    resume();
  } else {
    write_snapshot_locked(path);
  }
  return applied_seq_.load(std::memory_order_relaxed);
}

void IngestService::write_snapshot_locked(const std::string& path) {
  // The applier is parked (or joined), so live_edges_ is stable and the
  // structure is at a batch boundary: settle any lazily maintained state
  // (boundary index, caches) before freezing.
  dc_.quiesce();
  std::vector<Edge> edges;
  edges.reserve(live_edges_.size());
  for (const uint64_t key : live_edges_) edges.push_back(Edge::from_key(key));
  const io::Snapshot s =
      io::make_snapshot(applied_seq_.load(std::memory_order_relaxed),
                        dc_.num_vertices(), std::move(edges));
  io::save_snapshot_file_atomic(s, path);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void IngestService::applier_main() {
  std::vector<Req> reqs;
  reqs.reserve(opts_.max_batch);
  int idle = 0;
  for (;;) {
    {
      std::unique_lock lk(park_mu_);
      if (pause_depth_ > 0) {
        parked_ = true;
        park_cv_.notify_all();
        park_cv_.wait(lk, [&] {
          return pause_depth_ == 0 || stop_.load(std::memory_order_acquire);
        });
        parked_ = false;
        if (pause_depth_ > 0) {
          // stop() raced an active pauser (who may be mid-read of
          // live_edges_): exit without touching anything further; stop()
          // drops whatever is left in the ring.
          break;
        }
      }
    }
    reqs.clear();
    ring_.pop_batch(reqs, opts_.max_batch);
    if (reqs.empty()) {
      if (stop_.load(std::memory_order_acquire)) {
        // One more look: a producer may have published between the failed
        // pop and the stop check.
        if (ring_.pop_batch(reqs, opts_.max_batch) == 0) break;
      } else {
        if (++idle > 64) std::this_thread::yield();
        continue;
      }
    }
    idle = 0;
    apply_group(reqs);
    if (opts_.snapshot_every > 0 && !opts_.snapshot_path.empty() &&
        applied_updates_ - last_snapshot_updates_ >= opts_.snapshot_every) {
      last_snapshot_updates_ = applied_updates_;
      write_snapshot_locked(opts_.snapshot_path);
    }
  }
  {
    // Unblock any pause() still waiting for parked_: the applier is gone,
    // which is as parked as it gets.
    std::lock_guard lk(park_mu_);
    applier_running_ = false;
  }
  park_cv_.notify_all();
}

void IngestService::apply_group(std::vector<Req>& reqs) {
  // Group commit, write-ahead: one journal append (and at most one fsync)
  // covers every update in the batch, persisted *before* the batch is
  // applied or any ticket acknowledged — an acked update is a durable
  // update, and a failed append (ENOSPC, EIO) fails the batch without
  // letting in-memory state run ahead of the log. A crash between the
  // append and the apply only means recovery replays ops that were never
  // acked, which the redo-log contract allows.
  uint64_t updates = 0;
  if (journal_ != nullptr && !journal_broken_) {
    journal_buf_.clear();
    char rec[io::kJournalRecordBytes];
    uint64_t next_seq = seq_;
    for (const Req& r : reqs) {
      if (!is_update(r.op.kind)) continue;
      io::encode_journal_record(rec, ++next_seq, r.op);
      journal_buf_.insert(journal_buf_.end(), rec, rec + sizeof rec);
      ++updates;
    }
    if (!journal_buf_.empty()) {
      bool ok = std::fwrite(journal_buf_.data(), 1, journal_buf_.size(),
                            journal_) == journal_buf_.size() &&
                std::fflush(journal_) == 0;
      if (ok && opts_.journal_fsync) {
        ok = ::fsync(fileno(journal_)) == 0;
        fsyncs_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ok) {
        // Sticky fail-stop: the file position and on-disk tail are now
        // unknown, so no later append can be trusted either. The torn tail
        // (if any) is exactly what the tolerant loader chops on recovery.
        journal_broken_ = true;
        journal_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        journal_records_.fetch_add(updates, std::memory_order_relaxed);
        seq_ = next_seq;
      }
    }
  } else if (journal_ == nullptr) {
    for (const Req& r : reqs) {
      if (is_update(r.op.kind)) {
        ++seq_;
        ++updates;
      }
    }
  }
  if (journal_broken_) {
    for (const Req& r : reqs) {
      if (r.ticket != nullptr) {
        r.ticket->state.store(Ticket::kFailed, std::memory_order_release);
      }
    }
    failed_.fetch_add(reqs.size(), std::memory_order_relaxed);
    acked_.fetch_add(reqs.size(), std::memory_order_release);
    return;
  }

  ops_scratch_.clear();
  for (const Req& r : reqs) ops_scratch_.push_back(r.op);
  const BatchResult res = dc_.apply_batch(ops_scratch_);

  // Live-edge bookkeeping: only *effective* updates change the set (a
  // duplicate add / absent remove reports value 0 from apply_batch).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Op& op = reqs[i].op;
    if (res.values[i] == 0) continue;
    if (op.kind == OpKind::kAdd) {
      live_edges_.insert(Edge(op.u, op.v).key());
    } else if (op.kind == OpKind::kRemove) {
      live_edges_.erase(Edge(op.u, op.v).key());
    }
  }
  applied_updates_ += updates;
  applied_seq_.store(seq_, std::memory_order_relaxed);

  const uint64_t now = opts_.record_sojourn ? lock_stats::now_ns() : 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (Ticket* t = reqs[i].ticket; t != nullptr) {
      t->value.store(res.values[i], std::memory_order_relaxed);
      t->state.store(Ticket::kDone, std::memory_order_release);
    }
  }
  if (opts_.record_sojourn) {
    std::lock_guard lk(sojourn_mu_);
    for (const Req& r : reqs) {
      sojourn_ns_.push_back(clamped_u32(now - r.t_enqueue_ns));
    }
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = max_batch_fill_.load(std::memory_order_relaxed);
  if (reqs.size() > prev) {
    max_batch_fill_.store(reqs.size(), std::memory_order_relaxed);
  }
  acked_.fetch_add(reqs.size(), std::memory_order_release);
}

IngestStats IngestService::stats() const {
  IngestStats s;
  s.submitted = submitted_.load(std::memory_order_acquire);
  s.acked = acked_.load(std::memory_order_acquire);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.shed_reads = shed_reads_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch_fill = max_batch_fill_.load(std::memory_order_relaxed);
  s.journal_records = journal_records_.load(std::memory_order_relaxed);
  s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  s.journal_errors = journal_errors_.load(std::memory_order_relaxed);
  s.snapshots = snapshots_.load(std::memory_order_relaxed);
  s.applied_seq = applied_seq_.load(std::memory_order_relaxed);
  // acked_ is read after submitted_ above, so it may have advanced past the
  // submitted_ sample under concurrent draining — clamp instead of wrapping.
  s.queue_depth = s.submitted > s.acked ? s.submitted - s.acked : 0;
  return s;
}

std::vector<uint32_t> IngestService::take_sojourn_ns() {
  std::lock_guard lk(sojourn_mu_);
  return std::exchange(sojourn_ns_, {});
}

// ---------------------------------------------------------------------------
// Recovery

namespace {

constexpr std::size_t kReplayChunk = 1024;

void apply_chunked(DynamicConnectivity& dc, const std::vector<Op>& ops) {
  for (std::size_t i = 0; i < ops.size(); i += kReplayChunk) {
    dc.apply_batch(std::span<const Op>(ops).subspan(
        i, std::min(kReplayChunk, ops.size() - i)));
  }
}

}  // namespace

RecoveryResult recover(DynamicConnectivity& dc, const io::Snapshot* snap,
                       const io::JournalData& journal) {
  RecoveryResult r;
  std::unordered_set<uint64_t> live;
  if (snap != nullptr) {
    if (snap->edges.num_vertices > dc.num_vertices()) {
      throw std::runtime_error("recover: snapshot addresses more vertices "
                               "than the structure");
    }
    r.snapshot_edges = snap->edges.ops.size();
    r.applied_seq = snap->applied_seq;
    apply_chunked(dc, snap->edges.ops);
    for (const Op& op : snap->edges.ops) {
      live.insert(Edge(op.u, op.v).key());
    }
  }
  r.journal_records = journal.records.size();
  r.truncated_tail = journal.truncated_tail;
  if (!journal.records.empty() && journal.num_vertices > dc.num_vertices()) {
    throw std::runtime_error("recover: journal addresses more vertices than "
                             "the structure");
  }
  std::vector<Op> tail;
  for (const io::JournalRecord& rec : journal.records) {
    if (rec.seq <= r.applied_seq) continue;  // folded into the snapshot
    tail.push_back(rec.op);
    ++r.replayed;
  }
  if (!journal.records.empty()) {
    r.applied_seq = std::max(r.applied_seq, journal.records.back().seq);
  }
  apply_chunked(dc, tail);
  for (const Op& op : tail) {
    const uint64_t key = Edge(op.u, op.v).key();
    if (op.kind == OpKind::kAdd) {
      live.insert(key);
    } else {
      live.erase(key);
    }
  }
  // No-op replays (duplicate add, absent remove) leave `live` correct: the
  // set mirrors presence, and insert/erase are idempotent on it.
  r.live_edges.reserve(live.size());
  for (const uint64_t key : live) r.live_edges.push_back(Edge::from_key(key));
  std::sort(r.live_edges.begin(), r.live_edges.end());
  dc.quiesce();  // settle lazily maintained state before serving queries
  return r;
}

RecoveryResult recover_files(DynamicConnectivity& dc,
                             const std::string& snapshot_path,
                             const std::string& journal_path) {
  io::Snapshot snap;
  bool have_snap = false;
  if (!snapshot_path.empty()) {
    std::ifstream f(snapshot_path, std::ios::binary);
    if (f) {
      snap = io::load_snapshot(f);
      have_snap = true;
    }
  }
  const io::JournalData journal =
      journal_path.empty() ? io::JournalData{}
                           : io::load_journal_file(journal_path);
  return recover(dc, have_snap ? &snap : nullptr, journal);
}

}  // namespace condyn::ingest
