#include "graph/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "graph/codec.hpp"

namespace condyn::io {

namespace {

/// FNV-1a over the record prefix — cheap, dependency-free, and plenty to
/// tell a torn tail from a good record (this is corruption *detection* at
/// the single-record scale, not cryptographic integrity).
uint32_t fnv1a32(const char* data, std::size_t n) {
  uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot/journal: " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// DCSN snapshot

void save_snapshot(const Snapshot& s, std::ostream& out) {
  for (const Op& op : s.edges.ops) {
    if (op.kind != OpKind::kAdd) {
      fail("snapshot trace must contain only add ops");
    }
  }
  std::vector<uint8_t> buf(kSnapshotMagic, kSnapshotMagic + 4);
  codec::append_le(buf, kSnapshotVersion);
  codec::append_le(buf, s.applied_seq);
  encode_trace(s.edges, buf);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) fail("write failed");
}

void save_snapshot_file(const Snapshot& s, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) fail("cannot open " + path + " for writing");
  save_snapshot(s, f);
  f.flush();
  if (!f) fail("write failed: " + path);
}

namespace {

/// fsync a path's bytes down to disk. The stream writer above only flushes
/// to the page cache; without this the rename below can publish a name
/// whose *data* is lost in a power cut.
void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot reopen " + path + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync " + path + " failed");
}

/// fsync the directory entry after a rename so the new name itself survives
/// a crash. Best-effort: some filesystems refuse directory fsync, and the
/// file's data is already durable by this point.
void sync_dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void save_snapshot_file_atomic(const Snapshot& s, const std::string& path) {
  const std::string tmp = path + ".tmp";
  save_snapshot_file(s, tmp);
  sync_file(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("rename " + tmp + " -> " + path + " failed");
  }
  sync_dir_of(path);
}

Snapshot load_snapshot(std::istream& in) {
  const std::vector<uint8_t> bytes = codec::read_all(in);
  codec::Reader r(bytes, "snapshot/journal: snapshot");
  if (bytes.size() < codec::kSnapshotHeaderBytes) fail("short snapshot header");
  if (std::memcmp(r.take(4).data(), kSnapshotMagic, 4) != 0) {
    fail("bad snapshot magic");
  }
  const auto version = r.le<uint32_t>();
  if (version != kSnapshotVersion) {
    fail("unknown snapshot version " + std::to_string(version));
  }
  Snapshot s;
  s.applied_seq = r.le<uint64_t>();
  // The embedded trace: strict, truncation / overflow throws.
  s.edges = decode_trace(r.take(r.remaining()));
  for (const Op& op : s.edges.ops) {
    if (op.kind != OpKind::kAdd) {
      fail("snapshot trace contains a non-add op");
    }
  }
  return s;
}

Snapshot load_snapshot_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail("cannot open " + path);
  return load_snapshot(f);
}

Snapshot make_snapshot(uint64_t applied_seq, Vertex num_vertices,
                       std::vector<Edge> live_edges) {
  std::sort(live_edges.begin(), live_edges.end());
  Snapshot s;
  s.applied_seq = applied_seq;
  s.edges.num_vertices = num_vertices;
  s.edges.ops.reserve(live_edges.size());
  for (const Edge& e : live_edges) s.edges.ops.push_back(Op::add(e.u, e.v));
  return s;
}

// ---------------------------------------------------------------------------
// DCJL journal

void encode_journal_header(char out[kJournalHeaderBytes], Vertex num_vertices) {
  std::memcpy(out, kJournalMagic, 4);
  codec::put_le(out + 4, kJournalVersion);
  codec::put_le(out + 8, num_vertices);
  codec::put_le(out + 12, uint32_t{0});  // reserved
}

void encode_journal_record(char out[kJournalRecordBytes], uint64_t seq,
                           const Op& op) {
  codec::put_le(out, seq);
  codec::put_le(out + 8, static_cast<uint8_t>(op.kind));
  codec::put_le(out + 9, op.u);
  codec::put_le(out + 13, op.v);
  codec::put_le(out + 17, fnv1a32(out, 17));
}

void write_journal_header(std::ostream& out, Vertex num_vertices) {
  char buf[kJournalHeaderBytes];
  encode_journal_header(buf, num_vertices);
  out.write(buf, sizeof buf);
}

void write_journal_record(std::ostream& out, uint64_t seq, const Op& op) {
  char buf[kJournalRecordBytes];
  encode_journal_record(buf, seq, op);
  out.write(buf, sizeof buf);
}

JournalData load_journal(std::istream& in) {
  char header[kJournalHeaderBytes];
  in.read(header, sizeof header);
  if (in.gcount() != static_cast<std::streamsize>(sizeof header)) {
    fail("short journal header");
  }
  if (std::memcmp(header, kJournalMagic, 4) != 0) fail("bad journal magic");
  const auto version = codec::get_le<uint32_t>(header + 4);
  if (version != kJournalVersion) {
    fail("unknown journal version " + std::to_string(version));
  }
  JournalData j;
  j.num_vertices = codec::get_le<uint32_t>(header + 8);
  char rec[kJournalRecordBytes];
  uint64_t prev_seq = 0;
  for (;;) {
    in.read(rec, sizeof rec);
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;  // clean end-of-file
    if (got < sizeof rec) {
      // Torn tail: the process died mid-append. Drop it and report.
      j.truncated_tail = true;
      j.tail_bytes = got;
      break;
    }
    const auto crc = codec::get_le<uint32_t>(rec + 17);
    const auto seq = codec::get_le<uint64_t>(rec);
    const auto kind = codec::get_le<uint8_t>(rec + 8);
    const auto u = codec::get_le<Vertex>(rec + 9);
    const auto v = codec::get_le<Vertex>(rec + 13);
    const bool good = crc == fnv1a32(rec, 17) && kind <= 1 && seq > prev_seq &&
                      u < j.num_vertices && v < j.num_vertices;
    if (!good) {
      // Corrupt record: everything from here on is untrusted — same WAL
      // stance as a torn tail. Count the rest of the file as dropped.
      j.truncated_tail = true;
      j.tail_bytes = got;
      while (in.read(rec, sizeof rec) || in.gcount() > 0) {
        j.tail_bytes += static_cast<std::size_t>(in.gcount());
        if (in.gcount() == 0) break;
      }
      break;
    }
    prev_seq = seq;
    j.records.push_back(
        {seq, Op{kind == 0 ? OpKind::kAdd : OpKind::kRemove, u, v}});
  }
  return j;
}

JournalData load_journal_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {};  // no journal yet: empty history, not an error
  return load_journal(f);
}

}  // namespace condyn::io
