#include "graph/codec.hpp"

#include <istream>
#include <stdexcept>

namespace condyn::codec {

void Reader::fail(const std::string& problem) const {
  throw std::runtime_error(std::string(what_) + ": " + problem + " (at byte " +
                           std::to_string(pos_) + ")");
}

void append_ops(std::vector<uint8_t>& out, std::span<const Op> ops) {
  Vertex prev_u = 0;
  for (const Op& op : ops) {
    const uint64_t du = zigzag_encode(static_cast<int64_t>(op.u) -
                                      static_cast<int64_t>(prev_u));
    append_varint(out, (du << kKindBits) | static_cast<uint64_t>(op.kind));
    append_varint(out, zigzag_encode(static_cast<int64_t>(op.v) -
                                     static_cast<int64_t>(op.u)));
    prev_u = op.u;
  }
}

namespace {

/// Re-derive a vertex from a base plus a zigzag delta. The sum is taken in
/// uint64: every out-of-range true sum (negative, or past INT64_MAX from a
/// crafted 10-byte varint) wraps to a value >= 2^32 > num_vertices, so one
/// range check rejects them all without signed-overflow UB.
Vertex apply_delta(const Reader& in, Vertex base, int64_t delta,
                   Vertex num_vertices, const char* which) {
  const uint64_t v = base + static_cast<uint64_t>(delta);
  if (v >= num_vertices)
    in.fail(std::string(which) + " delta lands outside [0, " +
            std::to_string(num_vertices) + ")");
  return static_cast<Vertex>(v);
}

}  // namespace

std::vector<Op> read_ops(Reader& in, uint64_t count, Vertex num_vertices,
                         int kind_bits) {
  if (count > in.remaining() / 2)
    in.fail("op count " + std::to_string(count) +
            " exceeds what the payload can hold");
  // v2 predates the value kinds: its 2-bit field holds only 0..2.
  const unsigned kinds = kind_bits == kKindBitsV2 ? 3 : kNumOpKinds;
  const uint64_t kind_mask = (uint64_t{1} << kind_bits) - 1;
  // reserve, not resize: a hostile count must not touch pages before the
  // bytes behind it fail to decode.
  std::vector<Op> ops;
  ops.reserve(count);
  Vertex prev_u = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t tag = in.varint();
    const auto kind = static_cast<unsigned>(tag & kind_mask);
    if (kind >= kinds) in.fail("bad op kind " + std::to_string(kind));
    Op op;
    op.kind = static_cast<OpKind>(kind);
    op.u = apply_delta(in, prev_u, zigzag_decode(tag >> kind_bits),
                       num_vertices, "u");
    op.v = apply_delta(in, op.u, zigzag_decode(in.varint()), num_vertices,
                       "v");
    prev_u = op.u;
    ops.push_back(op);
  }
  return ops;
}

std::vector<uint8_t> read_all(std::istream& in) {
  std::vector<uint8_t> out;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    out.insert(out.end(), chunk, chunk + in.gcount());
  return out;
}

}  // namespace condyn::codec
