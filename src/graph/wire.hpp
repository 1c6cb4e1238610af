#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/codec.hpp"

namespace condyn::wire {

/// Length-prefixed binary framing of the Op/BatchResult vocabulary — the
/// connectivity service's wire protocol (DESIGN.md §12.1). A TCP stream is a
/// sequence of frames, each:
///
///   u32  length   little-endian; byte count of everything after this field
///                 (the type byte plus the payload); 1 <= length <=
///                 kMaxFrameBytes, anything else is a hopeless header
///   u8   type     FrameType below
///   ...  payload  length - 1 bytes, type-specific
///
/// Payloads are written and read by the byte codec DCTR traces use
/// (graph/codec.hpp): an ops payload is a varint count followed by exactly
/// the DCTR v3 delta+varint op payload, with the same strictness rules:
/// truncated varints, varints longer than 10 bytes,
/// kind > 4, vertex deltas outside [0, num_vertices), and payload bytes
/// disagreeing with the declared count (short *or* trailing) all throw
/// std::runtime_error — a malformed frame is rejected, never silently
/// misread. The per-frame delta base (prev_u) resets to 0 at every frame so
/// frames decode independently of each other.
///
/// The protocol is strict request/response in order: the server answers
/// every request frame with exactly one response frame on the same
/// connection, in arrival order (no request ids on the wire).

/// Upper bound on length (type byte + payload): oversized headers are
/// rejected before any allocation, so a hostile length field cannot OOM the
/// server (the same posture as the codec's corrupt-count guard).
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;
/// Bytes before the payload: the u32 length plus the u8 type.
inline constexpr std::size_t kHeaderBytes = codec::kFrameHeaderBytes;

enum class FrameType : uint8_t {
  kOps = 1,             ///< request: a batch of ops (one program)
  kResults = 2,         ///< response: status + per-op values
  kStatusRequest = 3,   ///< request: health/saturation probe (empty payload)
  kStatusResponse = 4,  ///< response: StatusReport counters
};

/// Per-frame response status (the u8 leading a kResults payload).
enum class Status : uint8_t {
  kOk = 0,            ///< values[i] is op i's raw result
  kOverloaded = 1,    ///< admission control shed the frame; nothing applied
  kBadFrame = 2,      ///< request failed strict decode; connection closes
  kShuttingDown = 3,  ///< server is draining; nothing applied
  kFailed = 4,        ///< ingest refused the frame (journal fail-stop, stop)
};

const char* status_name(Status s) noexcept;

/// A complete frame located at the start of a receive buffer. `payload`
/// aliases the input span — consume `frame_bytes` from the buffer after use.
struct FrameView {
  FrameType type = FrameType::kOps;
  std::span<const uint8_t> payload;
  std::size_t frame_bytes = 0;  ///< header + payload, the bytes to consume
};

/// Frame extraction for a streaming receive buffer: nullopt when `buf` does
/// not yet hold a complete frame (read more bytes); a FrameView when it
/// does. Throws std::runtime_error on a header that can never become valid
/// (length 0, length > kMaxFrameBytes, unknown frame type) — the caller
/// should answer kBadFrame and close, since framing is lost for good.
std::optional<FrameView> try_frame(std::span<const uint8_t> buf);

// --- kOps ------------------------------------------------------------------

/// Append a request frame carrying `ops` to `out`. Encoding never inspects
/// vertex ranges (the server's universe is checked at decode time).
void encode_ops_frame(std::span<const Op> ops, std::vector<uint8_t>& out);

/// Strict decode of a kOps payload against an n-vertex universe (the
/// server's num_vertices). Runs the DCTR v3 op decoder itself; see the file
/// comment for what throws.
std::vector<Op> decode_ops(std::span<const uint8_t> payload,
                           Vertex num_vertices);

// --- kResults --------------------------------------------------------------

struct Results {
  Status status = Status::kOk;
  std::vector<uint64_t> values;  ///< empty unless status == kOk

  friend bool operator==(const Results&, const Results&) = default;
};

/// Append a response frame: status byte, varint count, varint values.
/// Non-kOk statuses must carry zero values (enforced on decode).
void encode_results_frame(Status s, std::span<const uint64_t> values,
                          std::vector<uint8_t>& out);

Results decode_results(std::span<const uint8_t> payload);

// --- kStatusRequest / kStatusResponse --------------------------------------

/// Saturation/health counters the server answers a status probe with —
/// IngestService::stats() plus the serving universe (DESIGN.md §12.3): the
/// queue depth and drop/failure counters are what a load generator logs to
/// distinguish "server keeping up" from "ring saturated, shedding".
struct StatusReport {
  uint64_t num_vertices = 0;
  uint64_t queue_depth = 0;  ///< ops submitted but not yet acknowledged
  uint64_t submitted = 0;
  uint64_t acked = 0;        ///< applied + journaled (or failed terminally)
  uint64_t dropped = 0;
  uint64_t shed_reads = 0;
  uint64_t failed = 0;         ///< journal fail-stop refusals
  uint64_t journal_errors = 0;
  uint64_t batches = 0;        ///< group commits

  friend bool operator==(const StatusReport&, const StatusReport&) = default;
};

void encode_status_request(std::vector<uint8_t>& out);
void encode_status_response(const StatusReport& r, std::vector<uint8_t>& out);

/// Strict: exactly the nine varints above, no trailing bytes.
StatusReport decode_status_response(std::span<const uint8_t> payload);

/// A kStatusRequest payload must be empty; throws otherwise.
void check_status_request(std::span<const uint8_t> payload);

// --- fuzz entry ------------------------------------------------------------

/// Decode `buf` as a sequence of complete frames, running every payload
/// decoder (ops against an n-vertex universe) and the encode round-trip
/// checks. Returns the number of frames fully decoded; throws like the
/// individual decoders. The decode_fuzz harness drives this alongside the
/// trace/snapshot/journal decoders (DESIGN.md §12.1).
std::size_t decode_any(std::span<const uint8_t> buf, Vertex num_vertices);

}  // namespace condyn::wire
