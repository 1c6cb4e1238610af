#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/codec.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace condyn::io {

/// Durability formats of the streaming ingest pipeline (DESIGN.md §11.3):
/// a point-in-time *snapshot* of the live edge set plus an append-only op
/// *journal*, together reconstructing the exact graph after a crash
/// (load snapshot, replay journal records with seq > snapshot.applied_seq).
///
/// DCSN snapshot (magic "DCSN", little-endian):
///   bytes 0..3   magic "DCSN"
///   u32          version (1)
///   u64          applied_seq — journal sequence number of the last update
///                folded into this snapshot (0 = empty history)
///   then an embedded DCTR v3 trace whose ops are exclusively kAdd: the
///   live edge set frozen as explicit adds, exactly like trace prefill
///   freezing (harness::record_trace). Replaying the trace into an empty
///   structure reproduces the snapshotted graph; the strict DCTR decoder
///   (truncation, vertex overflow, op-count mismatch) is inherited whole.
///
/// DCJL journal (magic "DCJL", little-endian):
///   bytes 0..3   magic "DCJL"
///   u32          version (1)
///   u32          num_vertices of the structure being journaled
///   u32          reserved (0)
///   then fixed 21-byte records, one per acknowledged update op:
///     u64  seq   — 1-based, strictly increasing
///     u8   kind  — 0 add, 1 remove (queries are never journaled)
///     u32  u, v  — edge endpoints
///     u32  crc   — FNV-1a-32 over the preceding 17 bytes
///   The header is strict (bad magic/version/truncation throws); the record
///   stream is *tolerant*: a torn or corrupt tail — truncated record, bad
///   CRC, kind > 1, vertex >= num_vertices, non-increasing seq — ends the
///   journal at the last good record (WAL semantics: a crash mid-append
///   must lose at most the unacknowledged tail, never the file).

inline constexpr char kSnapshotMagic[4] = {'D', 'C', 'S', 'N'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr char kJournalMagic[4] = {'D', 'C', 'J', 'L'};
inline constexpr uint32_t kJournalVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = codec::kJournalHeaderBytes;
inline constexpr std::size_t kJournalRecordBytes = codec::kJournalRecordBytes;

struct Snapshot {
  uint64_t applied_seq = 0;  ///< journal seq folded into `edges`
  Trace edges;               ///< live edge set as explicit kAdd ops

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// One journaled update (kind is OpKind::kAdd or kRemove).
struct JournalRecord {
  uint64_t seq = 0;
  Op op;

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// A decoded journal: the records up to the first torn/corrupt one.
struct JournalData {
  Vertex num_vertices = 0;
  std::vector<JournalRecord> records;
  /// True when decoding stopped before end-of-file (torn tail dropped).
  bool truncated_tail = false;
  /// Bytes of the dropped tail (0 when the file decoded cleanly).
  uint64_t tail_bytes = 0;
};

/// Strict writer/reader for the snapshot envelope. save_snapshot validates
/// the embedded trace the way save_trace does (every op must be a kAdd
/// addressing a vertex < num_vertices) and embeds it as DCTR v3, the only
/// version the trace writer produces. The byte layouts are in
/// graph/codec.hpp.
void save_snapshot(const Snapshot& s, std::ostream& out);
void save_snapshot_file(const Snapshot& s, const std::string& path);
/// Atomic variant: write to `path + ".tmp"`, then rename over `path`, so a
/// crash mid-snapshot leaves the previous snapshot intact (or none at all),
/// never a half-written file.
void save_snapshot_file_atomic(const Snapshot& s, const std::string& path);

Snapshot load_snapshot(std::istream& in);
Snapshot load_snapshot_file(const std::string& path);

/// Journal header / record codec, exposed at byte level so the ingest
/// applier can append records through its own buffered fd (group-commit
/// fsync) while tests and fuzzers drive the stream versions.
void encode_journal_header(char out[kJournalHeaderBytes], Vertex num_vertices);
void encode_journal_record(char out[kJournalRecordBytes], uint64_t seq,
                           const Op& op);
void write_journal_header(std::ostream& out, Vertex num_vertices);
void write_journal_record(std::ostream& out, uint64_t seq, const Op& op);

/// Tolerant reader (see format comment). Throws std::runtime_error only on
/// header problems: short header, bad magic, unknown version.
JournalData load_journal(std::istream& in);
/// File variant; a *missing* file is not an error — it decodes as an empty
/// journal (a fresh service that never journaled anything).
JournalData load_journal_file(const std::string& path);

/// Freeze a structure's live edge set into a snapshot by walking an
/// explicitly tracked edge set (the ingest applier owns one); edges are
/// emitted in sorted canonical order so equal edge sets produce
/// byte-identical snapshots regardless of tracking-container iteration
/// order.
Snapshot make_snapshot(uint64_t applied_seq, Vertex num_vertices,
                       std::vector<Edge> live_edges);

}  // namespace condyn::io
