// The wire framing codec (DESIGN.md §12.1): frame extraction from partial
// byte streams, the ops/results/status payload round trips, and the strict
// decode contract it shares with the DCTR v2/v3 readers — truncated varints,
// bad op kinds, out-of-range vertices, corrupt counts and trailing bytes are
// all rejected with std::runtime_error, never silently repaired — and the
// one op payload encoding that frames and DCTR v3 traces share.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/io.hpp"
#include "graph/wire.hpp"

namespace condyn {
namespace {

using wire::FrameType;
using wire::Status;

std::vector<Op> sample_ops() {
  return {
      Op::add(3, 9),          Op::add(9, 1200),      Op::connected(3, 1200),
      Op::remove(3, 9),       Op::component_size(9), Op::representative(1200),
      Op::connected(0, 4095), Op::add(4095, 0),
  };
}

TEST(Wire, TryFrameNeedsFullHeaderAndBody) {
  std::vector<uint8_t> buf;
  wire::encode_ops_frame(sample_ops(), buf);
  // Every proper prefix is "incomplete", not an error.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const auto f = wire::try_frame(std::span(buf.data(), cut));
    EXPECT_FALSE(f.has_value()) << "prefix of " << cut << " bytes";
  }
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kOps);
  EXPECT_EQ(f->frame_bytes, buf.size());
}

TEST(Wire, TryFrameRejectsHopelessHeaders) {
  // Length 0.
  std::vector<uint8_t> zero = {0, 0, 0, 0};
  EXPECT_THROW(wire::try_frame(zero), std::runtime_error);
  // Length past the 2^24 bound: rejected before waiting for the body.
  std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(wire::try_frame(huge), std::runtime_error);
  // Unknown frame type byte.
  std::vector<uint8_t> badtype = {1, 0, 0, 0, 99};
  EXPECT_THROW(wire::try_frame(badtype), std::runtime_error);
}

TEST(Wire, OpsRoundTripAllKinds) {
  std::vector<uint8_t> buf;
  const std::vector<Op> ops = sample_ops();
  wire::encode_ops_frame(ops, buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(wire::decode_ops(f->payload, 4096), ops);
}

TEST(Wire, OpsRoundTripRandom) {
  std::mt19937_64 rng(7);
  constexpr Vertex kN = 1 << 18;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Op> ops;
    const int len = static_cast<int>(rng() % 200);
    for (int i = 0; i < len; ++i) {
      Op op;
      op.kind = static_cast<OpKind>(rng() % kNumOpKinds);
      op.u = static_cast<Vertex>(rng() % kN);
      op.v = static_cast<Vertex>(rng() % kN);
      ops.push_back(op);
    }
    std::vector<uint8_t> buf;
    wire::encode_ops_frame(ops, buf);
    const auto f = wire::try_frame(buf);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(wire::decode_ops(f->payload, kN), ops);
  }
}

TEST(Wire, OpsPayloadIsTheDctrV3Payload) {
  // All five kinds, u and v deltas of both signs, vertices 0 and n-1.
  constexpr Vertex kN = 4096;
  io::Trace t;
  t.num_vertices = kN;
  t.ops = {Op::add(0, kN - 1),       Op::remove(kN - 1, 0),
           Op::connected(17, 3),     Op::component_size(kN - 1),
           Op::representative(0),    Op::add(5, 900),
           Op::connected(kN - 1, kN - 1)};
  std::stringstream ss;
  io::save_trace(t, ss);
  const std::string file = ss.str();
  ASSERT_GT(file.size(), 24u);
  const std::vector<uint8_t> trace_payload(file.begin() + 24, file.end());

  std::vector<uint8_t> frame;
  wire::encode_ops_frame(t.ops, frame);
  // Below 128 ops the count varint is the single byte after the header.
  ASSERT_EQ(frame.at(wire::kHeaderBytes), t.ops.size());
  const std::vector<uint8_t> frame_payload(
      frame.begin() + wire::kHeaderBytes + 1, frame.end());
  EXPECT_EQ(frame_payload, trace_payload);
}

TEST(Wire, EmptyOpsFrameIsValid) {
  std::vector<uint8_t> buf;
  wire::encode_ops_frame({}, buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(wire::decode_ops(f->payload, 16).empty());
}

TEST(Wire, OpsStrictDecodeErrors) {
  std::vector<uint8_t> buf;
  wire::encode_ops_frame(sample_ops(), buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  const std::span<const uint8_t> payload = f->payload;

  // Every truncation of the payload fails (the count promises more ops).
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(wire::decode_ops(payload.first(cut), 4096),
                 std::runtime_error)
        << "truncated at " << cut;
  }
  // Vertices out of range for a smaller universe.
  EXPECT_THROW(wire::decode_ops(payload, 100), std::runtime_error);
  // Trailing garbage past the declared ops.
  std::vector<uint8_t> extended(payload.begin(), payload.end());
  extended.push_back(0);
  EXPECT_THROW(wire::decode_ops(extended, 4096), std::runtime_error);
  // Corrupt count: claims more ops than the payload could possibly hold.
  std::vector<uint8_t> bloated = {200, 10};  // varint count = 1480, 1 byte left
  EXPECT_THROW(wire::decode_ops(bloated, 4096), std::runtime_error);
  // Bad op kind: tag with kind bits 5..7. kind=7, delta 0 -> tag byte 0x07,
  // followed by v-delta 0, count 1.
  std::vector<uint8_t> badkind = {1, 0x07, 0x00};
  EXPECT_THROW(wire::decode_ops(badkind, 4096), std::runtime_error);
  // Varint longer than 10 bytes.
  std::vector<uint8_t> longvar = {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                  0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_THROW(wire::decode_ops(longvar, 4096), std::runtime_error);
}

TEST(Wire, ResultsRoundTrip) {
  const std::vector<uint64_t> values = {1, 0, 17, 0xffffffffffffffffull, 3};
  std::vector<uint8_t> buf;
  wire::encode_results_frame(Status::kOk, values, buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kResults);
  const wire::Results r = wire::decode_results(f->payload);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, values);
}

TEST(Wire, ResultsNonOkCarryNoValues) {
  // The encoder refuses to build the contradiction...
  std::vector<uint8_t> buf;
  EXPECT_THROW(wire::encode_results_frame(Status::kOverloaded, {{1}}, buf),
               std::runtime_error);
  // ...and the decoder refuses to accept it off the wire.
  std::vector<uint8_t> forged = {static_cast<uint8_t>(Status::kOverloaded), 1,
                                 1};
  EXPECT_THROW(wire::decode_results(forged), std::runtime_error);
  // Well-formed shed response round-trips.
  buf.clear();
  wire::encode_results_frame(Status::kOverloaded, {}, buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  const wire::Results r = wire::decode_results(f->payload);
  EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_TRUE(r.values.empty());
}

TEST(Wire, ResultsStrictDecodeErrors) {
  EXPECT_THROW(wire::decode_results({}), std::runtime_error);
  std::vector<uint8_t> badstatus = {42, 0};
  EXPECT_THROW(wire::decode_results(badstatus), std::runtime_error);
  std::vector<uint8_t> bloated = {0, 200, 10};  // count 1480, 0 bytes left
  EXPECT_THROW(wire::decode_results(bloated), std::runtime_error);
  std::vector<uint8_t> trailing = {0, 1, 5, 9};  // one value, one extra byte
  EXPECT_THROW(wire::decode_results(trailing), std::runtime_error);
}

TEST(Wire, StatusRoundTrip) {
  wire::StatusReport rep;
  rep.num_vertices = 1 << 20;
  rep.queue_depth = 17;
  rep.submitted = 100000;
  rep.acked = 99983;
  rep.dropped = 3;
  rep.shed_reads = 2;
  rep.failed = 0;
  rep.journal_errors = 0;
  rep.batches = 512;
  std::vector<uint8_t> buf;
  wire::encode_status_response(rep, buf);
  const auto f = wire::try_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kStatusResponse);
  EXPECT_EQ(wire::decode_status_response(f->payload), rep);

  buf.clear();
  wire::encode_status_request(buf);
  const auto req = wire::try_frame(buf);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->type, FrameType::kStatusRequest);
  EXPECT_NO_THROW(wire::check_status_request(req->payload));
  std::vector<uint8_t> nonempty = {1};
  EXPECT_THROW(wire::check_status_request(nonempty), std::runtime_error);
}

TEST(Wire, DecodeAnyWalksStreams) {
  std::vector<uint8_t> buf;
  wire::encode_ops_frame(sample_ops(), buf);
  wire::encode_results_frame(Status::kOk, {{1, 0, 1}}, buf);
  wire::encode_status_request(buf);
  const std::size_t whole = buf.size();
  buf.insert(buf.end(), {3, 0, 0, 0});  // incomplete tail: stop, not error
  EXPECT_EQ(wire::decode_any(buf, 4096), 3u);
  EXPECT_EQ(wire::decode_any(std::span(buf.data(), whole), 4096), 3u);
}

TEST(Wire, StatusNames) {
  EXPECT_STREQ(wire::status_name(Status::kOk), "ok");
  EXPECT_STREQ(wire::status_name(Status::kOverloaded), "overloaded");
  EXPECT_STREQ(wire::status_name(Status::kShuttingDown), "shutting-down");
}

}  // namespace
}  // namespace condyn
