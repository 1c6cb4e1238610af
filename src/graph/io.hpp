#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/graph.hpp"

namespace condyn::io {

/// Graph file IO. Two formats:
///  * SNAP edge list ("u v" per line, '#' comments) — the format of the
///    Twitter / Stanford web / LiveJournal datasets the paper uses;
///  * DIMACS ("p sp n m" header, "a u v w" arcs, 1-based) — the format of
///    the USA-roads shortest-path challenge graphs.
/// Loops and multi-edges are stripped on load (paper §5.1). With these
/// loaders a user who *does* have the original datasets can run every
/// benchmark on them unmodified.

Graph load_snap(std::istream& in);
Graph load_snap_file(const std::string& path);

Graph load_dimacs(std::istream& in);
Graph load_dimacs_file(const std::string& path);

void save_snap(const Graph& g, std::ostream& out);

/// Load by extension: ".gr" => DIMACS, anything else => SNAP edge list.
Graph load_auto(const std::string& path);

/// Binary operation-trace format (DESIGN.md §6.2): a recorded op stream any
/// scenario can be frozen into (harness::record_trace) and replayed
/// deterministically across variants for apples-to-apples comparisons.
/// The writer produces v3 only; the reader accepts v1, v2 and v3 (the older
/// versions stay readable for the checked-in golden traces). All versions
/// are little-endian with magic "DCTR"; the layouts and the byte primitives
/// live in graph/codec.hpp.
///
/// v1 (fixed 9 bytes/op, the original debug format):
///   bytes 0..3   magic "DCTR"
///   u32          version (1)
///   u32          num_vertices of the graph the ops address
///   u64          op count
///   then per op: u8 kind (0 add, 1 remove, 2 connected), u32 u, u32 v
///
/// v2/v3 (delta + varint/zigzag compressed, ~2-3 bytes/op on temporal
/// streams):
///   bytes 0..3   magic "DCTR"
///   u32          version (2 or 3)
///   u32          flags (kTraceFlagDeltaVarint must be set, unknown bits
///                are rejected)
///   u32          num_vertices
///   u64          op count
///   then per op, two LEB128 varints (prev_u starts at 0):
///     varint A = zigzag(u - prev_u) << kind_bits | kind
///     varint B = zigzag(v - u)
///   v2 has 2 kind bits and the boolean kinds 0..2; v3 has 3 kind bits and
///   adds kind 3 = component_size(u) and 4 = representative(u), both with
///   v == u (a zero varint B). The wire protocol's ops frames carry the
///   same v3 payload.
/// Decoding is strict for every version: truncation, varints longer than 10
/// bytes, kinds outside the version's vocabulary, vertices outside
/// [0, num_vertices), and op-count mismatches (payload ending early OR
/// trailing bytes after the declared count) all throw std::runtime_error
/// instead of yielding a silently wrong trace.
struct Trace {
  Vertex num_vertices = 0;
  std::vector<Op> ops;

  friend bool operator==(const Trace&, const Trace&) = default;
};

inline constexpr char kTraceMagic[4] = {'D', 'C', 'T', 'R'};
inline constexpr uint32_t kTraceVersionV1 = 1;
inline constexpr uint32_t kTraceVersionV2 = 2;
inline constexpr uint32_t kTraceVersionV3 = 3;
/// v2/v3 header flag: payload is the delta+varint encoding above. The only
/// flag defined so far; the writer sets it, readers reject unknown bits.
inline constexpr uint32_t kTraceFlagDeltaVarint = 1u << 0;

/// Append the DCTR v3 encoding of `t` to `out`. Validates that every op
/// addresses a vertex < num_vertices (a file that would fail its own strict
/// reload is a bug at write time).
void encode_trace(const Trace& t, std::vector<uint8_t>& out);
void save_trace(const Trace& t, std::ostream& out);
void save_trace_file(const Trace& t, const std::string& path);

/// Version-dispatching strict decoder (v1, v2 and v3) over a whole buffer.
/// Throws std::runtime_error on bad magic, unknown version or flags,
/// truncation, bad op codes, vertex overflow, or op-count mismatch (see the
/// format comment above).
Trace decode_trace(std::span<const uint8_t> bytes);
/// Decodes the rest of the stream as one trace.
Trace load_trace(std::istream& in);
Trace load_trace_file(const std::string& path);

/// Header + payload statistics of a trace file (the `trace_convert --info`
/// report): fully decodes the file, so a corrupt trace throws here too.
struct TraceFileInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  Vertex num_vertices = 0;
  uint64_t ops = 0;
  uint64_t adds = 0;
  uint64_t removes = 0;
  uint64_t queries = 0;        ///< connected(u, v) probes
  uint64_t size_queries = 0;   ///< component_size(u) probes (v3 only)
  uint64_t rep_queries = 0;    ///< representative(u) probes (v3 only)
  uint64_t file_bytes = 0;
  uint64_t header_bytes = 0;
  uint64_t payload_bytes = 0;
  /// payload_bytes / ops (0 when the trace is empty). 9.0 for v1 by
  /// construction; the v2/v3 target on temporal streams is <= 3.
  double bytes_per_op = 0;
};

TraceFileInfo trace_info_file(const std::string& path);

/// SNAP-style temporal edge list: one event per line, "u v [timestamp]",
/// '#'/'%' comments, self-loops dropped, malformed lines skipped (the same
/// tolerant parse as load_snap). Events without a timestamp keep file order
/// (their index becomes the timestamp).
struct TemporalEdge {
  Vertex u = 0;
  Vertex v = 0;
  uint64_t t = 0;

  friend bool operator==(const TemporalEdge&, const TemporalEdge&) = default;
};

std::vector<TemporalEdge> load_temporal_snap(std::istream& in);
std::vector<TemporalEdge> load_temporal_snap_file(const std::string& path);

/// SNAP temporal stream -> DCTR conversion knobs (tools/trace_convert).
struct ConvertOptions {
  /// Drop an add whose edge is currently live (multi-edges in the raw
  /// stream otherwise replay as no-op adds returning false).
  bool dedup = false;
  /// Live-edge cap: 0 = none (the trace is insert-only); N > 0 expires the
  /// oldest live edge with an explicit remove before each add that would
  /// exceed N — this is what turns a grow-only SNAP stream into a fully
  /// dynamic workload.
  std::size_t window = 0;
  /// Emit a connected(u, v) probe between the endpoints of two random live
  /// edges every N update ops (0 = no queries).
  uint32_t query_every = 0;
  uint64_t seed = 42;  ///< probe endpoint choice
};

/// Convert a temporal event stream into a replayable trace: events are
/// stably sorted by timestamp, each becomes an add (subject to dedup /
/// window expiry above), and num_vertices is sized from the largest
/// endpoint seen.
Trace temporal_to_trace(std::vector<TemporalEdge> events,
                        const ConvertOptions& opts = {});

/// Synthesize the paper's read-heavy mixes from an update stream
/// (trace_convert --reads P): walk the input ops maintaining the live edge
/// set, and interleave query probes after updates until reads make up
/// `read_percent` of the output. Probes target endpoints of random live
/// edges (seeded); with `size_queries`, probes rotate through
/// connected / component_size / representative. Existing queries in the
/// input are passed through and counted toward the read share.
Trace synthesize_reads(const Trace& in, int read_percent, bool size_queries,
                       uint64_t seed);

}  // namespace condyn::io
