#include "graph/wire.hpp"

#include <stdexcept>

#include "graph/codec.hpp"

namespace condyn::wire {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("wire: " + what);
}

/// Reserve space for the u32 length prefix; patched by end_frame once the
/// body size is known.
std::size_t begin_frame(std::vector<uint8_t>& out, FrameType type) {
  const std::size_t at = out.size();
  out.insert(out.end(), {0, 0, 0, 0});
  out.push_back(static_cast<uint8_t>(type));
  return at;
}

void end_frame(std::vector<uint8_t>& out, std::size_t at) {
  const uint64_t body = out.size() - at - 4;  // type byte + payload
  if (body == 0 || body > kMaxFrameBytes) fail("frame body size out of range");
  codec::put_le(out.data() + at, static_cast<uint32_t>(body));
}

}  // namespace

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kBadFrame: return "bad-frame";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kFailed: return "failed";
  }
  return "unknown";
}

std::optional<FrameView> try_frame(std::span<const uint8_t> buf) {
  if (buf.size() < 4) return std::nullopt;
  const auto len = codec::get_le<uint32_t>(buf.data());
  // Hopeless headers are rejected before waiting for (or allocating) the
  // body: a corrupt length would otherwise stall the connection forever or
  // commit the server to buffering up to 4 GiB.
  if (len == 0) fail("frame length 0");
  if (len > kMaxFrameBytes)
    fail("frame length " + std::to_string(len) + " exceeds the " +
         std::to_string(kMaxFrameBytes) + "-byte bound");
  if (buf.size() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const uint8_t type = buf[4];
  if (type < static_cast<uint8_t>(FrameType::kOps) ||
      type > static_cast<uint8_t>(FrameType::kStatusResponse))
    fail("unknown frame type " + std::to_string(type));
  FrameView f;
  f.type = static_cast<FrameType>(type);
  f.payload = buf.subspan(kHeaderBytes, len - 1);
  f.frame_bytes = 4 + static_cast<std::size_t>(len);
  return f;
}

void encode_ops_frame(std::span<const Op> ops, std::vector<uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameType::kOps);
  codec::append_varint(out, ops.size());
  codec::append_ops(out, ops);
  end_frame(out, at);
}

std::vector<Op> decode_ops(std::span<const uint8_t> payload,
                           Vertex num_vertices) {
  codec::Reader in(payload, "wire: ops frame");
  const uint64_t count = in.varint();
  std::vector<Op> ops =
      codec::read_ops(in, count, num_vertices, codec::kKindBits);
  in.expect_end();
  return ops;
}

void encode_results_frame(Status s, std::span<const uint64_t> values,
                          std::vector<uint8_t>& out) {
  if (s != Status::kOk && !values.empty())
    fail("non-ok results frame must carry zero values");
  const std::size_t at = begin_frame(out, FrameType::kResults);
  out.push_back(static_cast<uint8_t>(s));
  codec::append_varint(out, values.size());
  for (const uint64_t v : values) codec::append_varint(out, v);
  end_frame(out, at);
}

Results decode_results(std::span<const uint8_t> payload) {
  codec::Reader in(payload, "wire: results frame");
  const auto status = in.le<uint8_t>();
  if (status > static_cast<uint8_t>(Status::kFailed))
    in.fail("bad status " + std::to_string(status));
  Results r;
  r.status = static_cast<Status>(status);
  const uint64_t count = in.varint();
  // Each value is at least one payload byte.
  if (count > in.remaining())
    in.fail("value count " + std::to_string(count) +
            " exceeds what the payload can hold");
  if (r.status != Status::kOk && count != 0)
    in.fail("non-ok status with values");
  r.values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) r.values.push_back(in.varint());
  in.expect_end();
  return r;
}

void encode_status_request(std::vector<uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameType::kStatusRequest);
  end_frame(out, at);
}

void check_status_request(std::span<const uint8_t> payload) {
  if (!payload.empty()) fail("status request payload must be empty");
}

void encode_status_response(const StatusReport& r, std::vector<uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameType::kStatusResponse);
  for (const uint64_t v : {r.num_vertices, r.queue_depth, r.submitted, r.acked,
                           r.dropped, r.shed_reads, r.failed, r.journal_errors,
                           r.batches})
    codec::append_varint(out, v);
  end_frame(out, at);
}

StatusReport decode_status_response(std::span<const uint8_t> payload) {
  codec::Reader in(payload, "wire: status response");
  StatusReport r;
  for (uint64_t* v : {&r.num_vertices, &r.queue_depth, &r.submitted, &r.acked,
                      &r.dropped, &r.shed_reads, &r.failed, &r.journal_errors,
                      &r.batches})
    *v = in.varint();
  in.expect_end();
  return r;
}

namespace {

[[noreturn]] void roundtrip_fail(const char* what) {
  throw std::logic_error(std::string("wire round-trip mismatch: ") + what);
}

/// Decode one frame's payload and re-encode it; a successful decode that
/// does not round-trip bit-for-bit is a logic bug, reported distinctly from
/// the (expected) strict-decode rejections.
void decode_one(const FrameView& f, Vertex num_vertices) {
  std::vector<uint8_t> re;
  switch (f.type) {
    case FrameType::kOps: {
      const std::vector<Op> ops = decode_ops(f.payload, num_vertices);
      encode_ops_frame(ops, re);
      if (decode_ops(std::span(re).subspan(kHeaderBytes), num_vertices) != ops)
        roundtrip_fail("ops");
      break;
    }
    case FrameType::kResults: {
      const Results r = decode_results(f.payload);
      encode_results_frame(r.status, r.values, re);
      if (!(decode_results(std::span(re).subspan(kHeaderBytes)) == r))
        roundtrip_fail("results");
      break;
    }
    case FrameType::kStatusRequest:
      check_status_request(f.payload);
      break;
    case FrameType::kStatusResponse: {
      const StatusReport r = decode_status_response(f.payload);
      encode_status_response(r, re);
      if (!(decode_status_response(std::span(re).subspan(kHeaderBytes)) == r))
        roundtrip_fail("status response");
      break;
    }
  }
}

}  // namespace

std::size_t decode_any(std::span<const uint8_t> buf, Vertex num_vertices) {
  std::size_t frames = 0;
  while (!buf.empty()) {
    const std::optional<FrameView> f = try_frame(buf);
    if (!f) break;  // incomplete tail: fine for a stream, stop here
    decode_one(*f, num_vertices);
    buf = buf.subspan(f->frame_bytes);
    ++frames;
  }
  return frames;
}

}  // namespace condyn::wire
