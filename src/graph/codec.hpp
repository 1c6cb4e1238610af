#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"

namespace condyn::codec {

/// The one byte codec behind every binary format of the repo (DESIGN.md
/// §6.2, §11.4, §12.1): DCTR traces, DCSN snapshots, DCJL journals and wire
/// frames all read and write through these primitives. Fixed-width fields
/// are little-endian, assembled byte by byte so no host-endianness
/// assumption exists to guard. Variable-width fields are strict LEB128,
/// signed deltas zigzag-mapped first.

// --- fixed layouts, each summed from its field widths -----------------------

template <class... Fields>
inline constexpr std::size_t kWidth = (sizeof(Fields) + ...);
using Magic = char[4];

/// DCTR v1: magic, version, num_vertices, op count.
inline constexpr std::size_t kTraceV1HeaderBytes =
    kWidth<Magic, uint32_t, uint32_t, uint64_t>;
/// DCTR v2/v3: magic, version, flags, num_vertices, op count.
inline constexpr std::size_t kTraceHeaderBytes =
    kWidth<Magic, uint32_t, uint32_t, uint32_t, uint64_t>;
/// DCTR v1 op: kind, u, v.
inline constexpr std::size_t kTraceV1OpBytes = kWidth<uint8_t, Vertex, Vertex>;
/// DCSN: magic, version, applied_seq.
inline constexpr std::size_t kSnapshotHeaderBytes =
    kWidth<Magic, uint32_t, uint64_t>;
/// DCJL header: magic, version, num_vertices, reserved.
inline constexpr std::size_t kJournalHeaderBytes =
    kWidth<Magic, uint32_t, uint32_t, uint32_t>;
/// DCJL record: seq, kind, u, v, FNV-1a-32 of the preceding fields.
inline constexpr std::size_t kJournalRecordBytes =
    kWidth<uint64_t, uint8_t, Vertex, Vertex, uint32_t>;
/// Wire frame header: length, type.
inline constexpr std::size_t kFrameHeaderBytes = kWidth<uint32_t, uint8_t>;

static_assert(kTraceV1HeaderBytes == 20);
static_assert(kTraceHeaderBytes == 24);
static_assert(kTraceV1OpBytes == 9);
static_assert(kSnapshotHeaderBytes == 16);
static_assert(kJournalHeaderBytes == 16);
static_assert(kJournalRecordBytes == 21);
static_assert(kFrameHeaderBytes == 5);

// --- little-endian fixed width ----------------------------------------------

/// `out`/`in` point at raw bytes (char or uint8_t buffers alike).
template <std::unsigned_integral T>
inline void put_le(void* out, T v) noexcept {
  auto* b = static_cast<unsigned char*>(out);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    b[i] = static_cast<unsigned char>(v >> (8 * i));
}

template <std::unsigned_integral T>
inline T get_le(const void* in) noexcept {
  const auto* b = static_cast<const unsigned char*>(in);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
  return v;
}

template <std::unsigned_integral T>
inline void append_le(std::vector<uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  put_le(out.data() + at, v);
}

// --- zigzag and LEB128 ------------------------------------------------------

inline uint64_t zigzag_encode(int64_t v) noexcept {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);  // arithmetic shift: all-ones if <0
}

inline int64_t zigzag_decode(uint64_t z) noexcept {
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

inline void append_varint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

/// A strict cursor over a byte buffer. Every read that runs past the end,
/// and every malformed field, throws std::runtime_error prefixed with the
/// format name given at construction ("<what>: <problem>").
class Reader {
 public:
  Reader(std::span<const uint8_t> buf, const char* what) noexcept
      : buf_(buf), what_(what) {}

  [[noreturn]] void fail(const std::string& problem) const;

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }

  std::span<const uint8_t> take(std::size_t n) {
    if (n > remaining()) fail("truncated");
    const std::span<const uint8_t> s = buf_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <std::unsigned_integral T>
  T le() {
    return get_le<T>(take(sizeof(T)).data());
  }

  /// Strict LEB128: a read cut short and a run longer than 10 bytes both
  /// throw (a u64 needs at most 10 groups of 7 bits; an 11th continuation
  /// byte, or a 10th group above bit 63, means garbage, not a bigger
  /// number).
  uint64_t varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (pos_ >= buf_.size()) fail("truncated (varint cut short)");
      const uint8_t byte = buf_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) fail("varint overflows 64 bits");
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    fail("varint longer than 10 bytes");
  }

  /// The declared content must consume the whole buffer: trailing bytes
  /// are as corrupt as a truncation, just on the other side.
  void expect_end() const {
    if (pos_ != buf_.size())
      fail("payload continues past the declared content");
  }

 private:
  std::span<const uint8_t> buf_;
  std::size_t pos_ = 0;
  const char* what_;
};

// --- the delta-varint op payload (DCTR v2/v3, wire kOps) --------------------

/// Per op, two varints; the delta base prev_u starts at 0:
///   varint A = zigzag(u - prev_u) << kind_bits | kind
///   varint B = zigzag(v - u)
/// DCTR v3 and the wire use 3 kind bits; DCTR v2 used 2 and only the
/// boolean kinds 0..2.
inline constexpr int kKindBits = 3;
inline constexpr int kKindBitsV2 = 2;

/// Append the payload of `ops` with kKindBits kind bits. Vertex ranges are
/// not checked here; writers that promise a universe check it themselves.
void append_ops(std::vector<uint8_t>& out, std::span<const Op> ops);

/// Decode `count` ops against an n-vertex universe. Throws on a count the
/// remaining bytes cannot hold (each op is at least 2 bytes, checked before
/// any allocation), a bad kind, or a vertex delta landing outside
/// [0, num_vertices). Does not check for trailing bytes (expect_end).
std::vector<Op> read_ops(Reader& in, uint64_t count, Vertex num_vertices,
                         int kind_bits);

/// The rest of `in`, as bytes: the buffered readers' stream entry.
std::vector<uint8_t> read_all(std::istream& in);

}  // namespace condyn::codec
