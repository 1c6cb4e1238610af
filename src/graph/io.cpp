#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "graph/codec.hpp"
#include "util/random.hpp"

namespace condyn::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph io: " + what);
}

std::ifstream open(const std::string& path) {
  std::ifstream f(path);
  if (!f) fail("cannot open " + path);
  return f;
}

}  // namespace

Graph load_snap(std::istream& in) {
  std::vector<Edge> edges;
  Vertex max_v = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a, b;
    if (!(ls >> a >> b)) continue;
    if (a == b) continue;
    max_v = std::max<Vertex>(max_v, static_cast<Vertex>(std::max(a, b)));
    edges.emplace_back(static_cast<Vertex>(a), static_cast<Vertex>(b));
  }
  return Graph(max_v + 1, std::move(edges));
}

Graph load_snap_file(const std::string& path) {
  auto f = open(path);
  Graph g = load_snap(f);
  g.name = path;
  return g;
}

Graph load_dimacs(std::istream& in) {
  std::vector<Edge> edges;
  Vertex n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag;
    ls >> tag;
    if (tag == 'c') continue;
    if (tag == 'p') {
      std::string kind;
      uint64_t nn, mm;
      if (!(ls >> kind >> nn >> mm)) fail("bad DIMACS problem line");
      n = static_cast<Vertex>(nn);
      edges.reserve(mm);
    } else if (tag == 'a' || tag == 'e') {
      uint64_t a, b;
      if (!(ls >> a >> b)) fail("bad DIMACS arc line");
      if (a == 0 || b == 0) fail("DIMACS vertices are 1-based");
      if (a == b) continue;
      edges.emplace_back(static_cast<Vertex>(a - 1), static_cast<Vertex>(b - 1));
    }
  }
  if (n == 0) fail("missing DIMACS problem line");
  return Graph(n, std::move(edges));
}

Graph load_dimacs_file(const std::string& path) {
  auto f = open(path);
  Graph g = load_dimacs(f);
  g.name = path;
  return g;
}

void save_snap(const Graph& g, std::ostream& out) {
  out << "# condyn graph: " << g.name << "\n# nodes: " << g.num_vertices()
      << " edges: " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) out << e.u << '\t' << e.v << '\n';
}

Graph load_auto(const std::string& path) {
  if (path.size() >= 3 && path.substr(path.size() - 3) == ".gr")
    return load_dimacs_file(path);
  return load_snap_file(path);
}

void encode_trace(const Trace& t, std::vector<uint8_t>& out) {
  for (const Op& op : t.ops) {
    if (op.u >= t.num_vertices || op.v >= t.num_vertices)
      fail("trace op addresses vertex >= num_vertices (" +
           std::to_string(op.u) + "," + std::to_string(op.v) + " vs " +
           std::to_string(t.num_vertices) + "); refusing to write an "
           "unloadable trace");
  }
  out.insert(out.end(), kTraceMagic, kTraceMagic + 4);
  codec::append_le(out, kTraceVersionV3);
  codec::append_le(out, kTraceFlagDeltaVarint);
  codec::append_le(out, t.num_vertices);
  codec::append_le(out, uint64_t{t.ops.size()});
  codec::append_ops(out, t.ops);
}

void save_trace(const Trace& t, std::ostream& out) {
  std::vector<uint8_t> buf;
  encode_trace(t, buf);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) fail("trace write failed");
}

void save_trace_file(const Trace& t, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) fail("cannot write " + path);
  save_trace(t, f);
}

namespace {

/// v1: fixed 9-byte ops after a 20-byte header.
void decode_ops_v1(codec::Reader& in, uint64_t count, Trace& t) {
  if (count > in.remaining() / codec::kTraceV1OpBytes)
    in.fail("truncated (op count " + std::to_string(count) +
            " exceeds what the payload can hold)");
  t.ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const auto kind = in.le<uint8_t>();
    if (kind > 2) in.fail("bad op kind " + std::to_string(kind));
    Op op;
    op.kind = static_cast<OpKind>(kind);
    op.u = in.le<Vertex>();
    op.v = in.le<Vertex>();
    if (op.u >= t.num_vertices || op.v >= t.num_vertices)
      in.fail("op addresses vertex >= num_vertices (" + std::to_string(op.u) +
              "," + std::to_string(op.v) + " vs " +
              std::to_string(t.num_vertices) + ")");
    t.ops.push_back(op);
  }
}

}  // namespace

Trace decode_trace(std::span<const uint8_t> bytes) {
  codec::Reader in(bytes, "graph io: trace");
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kTraceMagic, 4) != 0)
    fail("not a DCTR trace (bad magic)");
  in.take(4);
  const auto version = in.le<uint32_t>();
  if (version < kTraceVersionV1 || version > kTraceVersionV3)
    fail("unsupported trace version " + std::to_string(version));
  if (version != kTraceVersionV1) {
    const auto flags = in.le<uint32_t>();
    if ((flags & kTraceFlagDeltaVarint) == 0)
      in.fail("v" + std::to_string(version) +
              " header lacks the delta-varint payload flag");
    if ((flags & ~kTraceFlagDeltaVarint) != 0)
      in.fail("v" + std::to_string(version) + " header declares unknown "
              "flags " + std::to_string(flags & ~kTraceFlagDeltaVarint));
  }
  Trace t;
  t.num_vertices = in.le<Vertex>();
  const auto count = in.le<uint64_t>();
  if (version == kTraceVersionV1) {
    decode_ops_v1(in, count, t);
  } else {
    t.ops = codec::read_ops(in, count, t.num_vertices,
                            version == kTraceVersionV2 ? codec::kKindBitsV2
                                                       : codec::kKindBits);
  }
  in.expect_end();
  return t;
}

Trace load_trace(std::istream& in) {
  const std::vector<uint8_t> bytes = codec::read_all(in);
  return decode_trace(bytes);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail("cannot open " + path);
  return load_trace(f);
}

TraceFileInfo trace_info_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) fail("cannot open " + path);
  const std::vector<uint8_t> bytes = codec::read_all(f);
  // The strict decode comes first, so --info doubles as a validity check
  // and the header fields read below are known to be present.
  const Trace t = decode_trace(bytes);
  TraceFileInfo info;
  info.file_bytes = bytes.size();
  info.version = codec::get_le<uint32_t>(bytes.data() + 4);
  if (info.version == kTraceVersionV1) {
    info.header_bytes = codec::kTraceV1HeaderBytes;
  } else {
    info.header_bytes = codec::kTraceHeaderBytes;
    info.flags = codec::get_le<uint32_t>(bytes.data() + 8);
  }
  info.num_vertices = t.num_vertices;
  info.ops = t.ops.size();
  for (const Op& op : t.ops) {
    switch (op.kind) {
      case OpKind::kAdd: ++info.adds; break;
      case OpKind::kRemove: ++info.removes; break;
      case OpKind::kConnected: ++info.queries; break;
      case OpKind::kComponentSize: ++info.size_queries; break;
      case OpKind::kRepresentative: ++info.rep_queries; break;
    }
  }
  info.payload_bytes = info.file_bytes - info.header_bytes;
  info.bytes_per_op =
      info.ops > 0
          ? static_cast<double>(info.payload_bytes) / static_cast<double>(info.ops)
          : 0.0;
  return info;
}

std::vector<TemporalEdge> load_temporal_snap(std::istream& in) {
  std::vector<TemporalEdge> events;
  std::string line;
  uint64_t index = 0;
  uint64_t timed = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a, b, ts;
    if (!(ls >> a >> b)) continue;
    if (a == b) continue;  // self-loops carry no connectivity information
    // Vertex is u32 and the universe is max_id + 1: an id that doesn't fit
    // would silently wrap to a wrong-but-valid trace. Reject it loudly.
    if (a >= 0xffffffffull || b >= 0xffffffffull)
      fail("temporal edge list id " + std::to_string(std::max(a, b)) +
           " does not fit a 32-bit vertex");
    if (ls >> ts) {
      ++timed;
    } else {
      ts = index;  // untimed lines keep file order
    }
    events.push_back({static_cast<Vertex>(a), static_cast<Vertex>(b), ts});
    ++index;
  }
  // All-timed and all-untimed files are both fine; a mix is not. An untimed
  // line's index-as-timestamp would stable_sort ahead of real (epoch-sized)
  // timestamps, silently replaying that event far out of order — a
  // truncated line in a timed file must be loud, like every other
  // malformation the trace pipeline rejects.
  if (timed != 0 && timed != events.size())
    fail("temporal edge list mixes timed and untimed lines (" +
         std::to_string(events.size() - timed) + " of " +
         std::to_string(events.size()) + " events lack a timestamp)");
  return events;
}

std::vector<TemporalEdge> load_temporal_snap_file(const std::string& path) {
  auto f = open(path);
  return load_temporal_snap(f);
}

Trace temporal_to_trace(std::vector<TemporalEdge> events,
                        const ConvertOptions& opts) {
  // Stable by timestamp: SNAP files are usually time-sorted already, but the
  // contract is "replay in temporal order" regardless of file order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.t < b.t;
                   });
  Trace out;
  for (const TemporalEdge& e : events)
    out.num_vertices = std::max(out.num_vertices, std::max(e.u, e.v) + 1);

  std::set<Edge> live;
  std::deque<Edge> fifo;  // insertion order of the live set (window expiry)
  Xoshiro256 rng(opts.seed);
  uint64_t updates = 0;

  auto maybe_probe = [&] {
    if (opts.query_every == 0 || updates == 0 ||
        updates % opts.query_every != 0 || fifo.empty())
      return;
    // Connectivity probe between two random live edges' endpoints — the
    // cross-component question a monitoring client would ask.
    const Edge& a = fifo[rng.next_below(fifo.size())];
    const Edge& b = fifo[rng.next_below(fifo.size())];
    out.ops.push_back(Op::connected(a.u, b.v));
  };

  for (const TemporalEdge& ev : events) {
    const Edge e(std::min(ev.u, ev.v), std::max(ev.u, ev.v));
    if (live.count(e)) {
      // Multi-edge in the raw stream: liveness is unchanged either way, the
      // only question is whether the no-op add is kept in the trace.
      if (!opts.dedup) {
        out.ops.push_back(Op::add(ev.u, ev.v));
        ++updates;
        maybe_probe();
      }
      continue;
    }
    if (opts.window > 0 && live.size() >= opts.window) {
      const Edge oldest = fifo.front();
      fifo.pop_front();
      live.erase(oldest);
      out.ops.push_back(Op::remove(oldest.u, oldest.v));
      ++updates;
      maybe_probe();
    }
    live.insert(e);
    fifo.push_back(e);
    out.ops.push_back(Op::add(ev.u, ev.v));
    ++updates;
    maybe_probe();
  }
  return out;
}

Trace synthesize_reads(const Trace& in, int read_percent, bool size_queries,
                       uint64_t seed) {
  read_percent = std::clamp(read_percent, 0, 99);  // 100 would never emit an update
  Trace out;
  out.num_vertices = in.num_vertices;
  // Worst case the output interleaves ~P/(100-P) reads per input op.
  out.ops.reserve(read_percent > 0
                      ? in.ops.size() * 100 / (100 - read_percent) + 1
                      : in.ops.size());

  std::vector<Edge> live;  // indexable for uniform probe sampling
  std::unordered_map<Edge, std::size_t, EdgeHash> live_at;  // edge -> index
  Xoshiro256 rng(seed);
  uint64_t reads = 0;
  uint64_t total = 0;
  uint32_t rotate = 0;

  auto emit_probe = [&] {
    if (live.empty()) return false;
    const Edge& a = live[rng.next_below(live.size())];
    // Rotate probe kinds so a --size-queries mix exercises the whole value
    // vocabulary, not just connected().
    if (size_queries && rotate % 3 == 1) {
      out.ops.push_back(Op::component_size(a.u));
    } else if (size_queries && rotate % 3 == 2) {
      out.ops.push_back(Op::representative(a.v));
    } else {
      const Edge& b = live[rng.next_below(live.size())];
      out.ops.push_back(Op::connected(a.u, b.v));
    }
    ++rotate;
    ++reads;
    ++total;
    return true;
  };

  for (const Op& op : in.ops) {
    out.ops.push_back(op);
    ++total;
    if (is_query(op.kind)) {
      ++reads;  // pass-through reads count toward the target share
      continue;
    }
    const Edge e(op.u, op.v);
    if (op.kind == OpKind::kAdd) {
      if (live_at.emplace(e, live.size()).second) live.push_back(e);
    } else if (const auto it = live_at.find(e); it != live_at.end()) {
      // O(1) swap-erase: a linear scan here made read synthesis quadratic
      // on large fully dynamic traces.
      const std::size_t i = it->second;
      live_at.erase(it);
      live[i] = live.back();
      if (i != live.size() - 1) live_at[live[i]] = i;
      live.pop_back();
    }
    // Top the read share back up to the target after every update.
    while (reads * 100 < static_cast<uint64_t>(read_percent) * (total + 1)) {
      if (!emit_probe()) break;  // nothing live yet to probe
    }
  }
  return out;
}

}  // namespace condyn::io
