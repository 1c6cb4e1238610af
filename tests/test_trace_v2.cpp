// DCTR format coverage: varint/zigzag round trips through the v3 writer,
// strict decode validation of every version (truncated varints, corrupted
// headers, bad op codes, vertex overflow, op-count mismatches, trailing
// bytes), recompression of the v1/v2 goldens into v3, the checked-in golden
// traces that pin the formats against drift, and the SNAP temporal importer
// behind tools/trace_convert.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "graph/io.hpp"
#include "harness/scenario.hpp"
#include "query_oracle.hpp"
#include "util/random.hpp"

namespace condyn {
namespace {

std::string source_path(const std::string& rel) {
  return std::string(CONDYN_SOURCE_DIR) + "/" + rel;
}

std::string bytes_of(const io::Trace& t) {
  std::stringstream ss;
  io::save_trace(t, ss);
  return ss.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// The writer produces v3 only: v1 and v2 reader inputs come from the
// checked-in goldens (400 ops over 64 vertices, pinned below).
constexpr const char* kGoldenV1Path = "tests/data/golden_v1.dctr";
constexpr const char* kGoldenV2Path = "tests/data/golden_v2.dctr";

io::Trace random_trace(Vertex n, std::size_t ops, uint64_t seed) {
  io::Trace t;
  t.num_vertices = n;
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    auto v = static_cast<Vertex>(rng.next_below(n - 1));
    if (v >= u) ++v;
    const uint64_t roll = rng.next_below(100);
    t.ops.push_back(roll < 40   ? Op::add(u, v)
                    : roll < 65 ? Op::remove(u, v)
                                : Op::connected(u, v));
  }
  return t;
}

/// FNV-1a over (num_vertices, then each op's kind/u/v, little-endian) — the
/// drift detector the golden tests pin. Changing the decoder in any way
/// that alters a decoded op changes this value.
uint64_t trace_fnv(const io::Trace& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(t.num_vertices, 4);
  for (const Op& op : t.ops) {
    mix(static_cast<uint64_t>(op.kind), 1);
    mix(op.u, 4);
    mix(op.v, 4);
  }
  return h;
}

/// Sequential single-op reference over the full value vocabulary.
using Oracle = condyn::testutil::QueryOracle;

/// A program exercising all five op kinds (the v3 vocabulary).
io::Trace random_value_trace(Vertex n, std::size_t ops, uint64_t seed) {
  io::Trace t;
  t.num_vertices = n;
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    auto v = static_cast<Vertex>(rng.next_below(n - 1));
    if (v >= u) ++v;
    const uint64_t roll = rng.next_below(100);
    t.ops.push_back(roll < 35   ? Op::add(u, v)
                    : roll < 55 ? Op::remove(u, v)
                    : roll < 75 ? Op::connected(u, v)
                    : roll < 88 ? Op::component_size(u)
                                : Op::representative(u));
  }
  return t;
}

TEST(TraceV2, RoundTripsArbitraryOpMixes) {
  for (const uint64_t seed : {1ull, 99ull}) {
    const io::Trace t = random_trace(5000, 700, seed);
    std::stringstream ss;
    io::save_trace(t, ss);
    EXPECT_EQ(io::load_trace(ss), t);
  }
  // Degenerate shapes: empty trace, single op, zero-delta runs.
  io::Trace empty;
  empty.num_vertices = 3;
  std::stringstream es;
  io::save_trace(empty, es);
  EXPECT_EQ(io::load_trace(es), empty);

  io::Trace runs;
  runs.num_vertices = 10;
  for (int i = 0; i < 50; ++i) runs.ops.push_back(Op::add(4, 7));
  std::stringstream rs;
  io::save_trace(runs, rs);
  EXPECT_EQ(io::load_trace(rs), runs);
  // Zero-delta encoding: repeated identical ops cost 2 bytes each.
  EXPECT_EQ(rs.str().size(), 24u + 2u * 50u);
}

TEST(TraceV2, CompressesBelowV1) {
  const io::Trace t = random_trace(2000, 1000, 5);
  // The v1 layout: a 20-byte header, then a fixed 9 bytes per op.
  const std::size_t v1_size = 20u + 9u * t.ops.size();
  EXPECT_LT(bytes_of(t).size(), v1_size / 2);  // even uniform-random ops halve
}

TEST(TraceV2, RecompressRoundTripIsIdentity) {
  // The v1 and v2 goldens hold the same ops: recompressing either gives the
  // same v3 bytes, and recompressing that output again changes nothing
  // (the writer is deterministic, so recompression is byte-stable).
  const io::Trace via_v1 = io::load_trace_file(source_path(kGoldenV1Path));
  const io::Trace via_v2 = io::load_trace_file(source_path(kGoldenV2Path));
  EXPECT_EQ(via_v1, via_v2);
  const std::string v3 = bytes_of(via_v1);
  EXPECT_EQ(bytes_of(via_v2), v3);
  std::stringstream s(v3);
  const io::Trace via_v3 = io::load_trace(s);
  EXPECT_EQ(via_v3, via_v1);
  EXPECT_EQ(bytes_of(via_v3), v3);
}

TEST(TraceV2, RejectsTruncatedVarints) {
  const std::string bytes = file_bytes(source_path(kGoldenV2Path));
  // Every cut inside the payload must throw, never mis-decode: varints cut
  // mid-byte-sequence, ops cut between their two varints, all of it.
  for (std::size_t cut = 24; cut < bytes.size(); cut += 3) {
    std::stringstream ss(bytes.substr(0, cut));
    EXPECT_THROW(io::load_trace(ss), std::runtime_error) << "cut at " << cut;
  }
}

TEST(TraceV2, RejectsCorruptedHeaders) {
  const std::string good = file_bytes(source_path(kGoldenV2Path));

  {  // bad magic
    std::string b = good;
    b[0] = 'X';
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // unknown version (3 is v3 now — 9 stays unassigned)
    std::string b = good;
    b[4] = 9;
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // unknown flag bit declared
    std::string b = good;
    b[8] = static_cast<char>(b[8] | 0x40);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // delta-varint flag missing
    std::string b = good;
    b[8] = 0;
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
}

TEST(TraceV2, RejectsOpCountMismatches) {
  const std::string good = file_bytes(source_path(kGoldenV2Path));
  {  // declared count larger than the payload holds -> truncation
    std::string b = good;
    b[16] = static_cast<char>(static_cast<unsigned char>(b[16]) + 1);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // declared count smaller -> trailing payload bytes
    std::string b = good;
    b[16] = static_cast<char>(static_cast<unsigned char>(b[16]) - 1);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
}

TEST(TraceV2, RejectsBadOpCodesAndVertexOverflow) {
  // Hand-built v2 payloads: header (|V|=4, 1 op) + crafted varints.
  auto header = [](uint64_t count) {
    std::string h = "DCTR";
    const auto u32 = [&](uint32_t v) {
      for (int i = 0; i < 4; ++i) h += static_cast<char>((v >> (8 * i)) & 0xff);
    };
    u32(2);  // version
    u32(1);  // flags: delta-varint
    u32(4);  // num_vertices
    for (int i = 0; i < 8; ++i)
      h += static_cast<char>((count >> (8 * i)) & 0xff);
    return h;
  };
  {  // kind bits == 3
    std::string b = header(1);
    b += static_cast<char>((0 << 2) | 3);  // du=0, kind=3
    b += static_cast<char>(2);             // dv=+1
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // u lands outside [0, 4): du = +5 (zigzag 10)
    std::string b = header(1);
    b += static_cast<char>((10 << 2) | 0);
    b += static_cast<char>(2);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // v lands negative: u=1, dv = -3 (zigzag 5)
    std::string b = header(1);
    b += static_cast<char>((2 << 2) | 0);  // du=+1
    b += static_cast<char>(5);             // dv=-3 -> v=-2
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // varint longer than 10 bytes
    std::string b = header(1);
    for (int i = 0; i < 11; ++i) b += static_cast<char>(0x80);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // dv = INT64_MAX via a legal 10-byte varint: must reject cleanly, not
     // overflow the delta addition (UB under -fsanitize=undefined)
    std::string b = header(1);
    b += static_cast<char>((2 << 2) | 0);  // du=+1 -> u=1
    for (int i = 0; i < 9; ++i) b += static_cast<char>(0xfe | (i ? 1 : 0));
    b += static_cast<char>(0x01);  // LEB128 of zigzag(INT64_MAX)
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
}

TEST(TraceV2, SaveRefusesOpsOutsideTheVertexUniverse) {
  io::Trace t;
  t.num_vertices = 4;
  t.ops = {Op::add(1, 9)};
  std::stringstream ss;
  EXPECT_THROW(io::save_trace(t, ss), std::runtime_error);
}

// --- golden traces: the on-disk formats are pinned against drift -----------

struct GoldenExpectation {
  const char* path;
  uint32_t version;
  std::size_t file_size;
};

constexpr Vertex kGoldenVertices = 64;
constexpr std::size_t kGoldenOps = 400;
constexpr uint64_t kGoldenFnv = 0xe578f352b82923c6ULL;

const GoldenExpectation kGolden[] = {
    {kGoldenV1Path, 1, 20 + 9 * kGoldenOps},
    {kGoldenV2Path, 2, 1053},
};

TEST(GoldenTrace, BothVersionsDecodeToThePinnedOps) {
  io::Trace first;
  for (const GoldenExpectation& g : kGolden) {
    const io::Trace t = io::load_trace_file(source_path(g.path));
    EXPECT_EQ(t.num_vertices, kGoldenVertices) << g.path;
    ASSERT_EQ(t.ops.size(), kGoldenOps) << g.path;
    // The FNV pin: any decoder change that alters one decoded op fails
    // here instead of silently invalidating recorded traces.
    EXPECT_EQ(trace_fnv(t), kGoldenFnv) << g.path;
    if (first.ops.empty()) {
      first = t;
    } else {
      EXPECT_EQ(t, first) << "v1 and v2 decode differently";
    }
    const io::TraceFileInfo info = io::trace_info_file(source_path(g.path));
    EXPECT_EQ(info.version, g.version);
    EXPECT_EQ(info.file_bytes, g.file_size) << g.path;
    EXPECT_EQ(info.ops, kGoldenOps);
    // The declared op count must consume the whole file in every version.
    std::stringstream trailing(file_bytes(source_path(g.path)) + "xyz");
    EXPECT_THROW(io::load_trace(trailing), std::runtime_error) << g.path;
  }
}

// The v3 golden trace pins the widened-kind wire format the same way:
// generated once from random_value_trace(64, 400, 2026), checked in, and
// guarded by an FNV pin + byte-exact re-encode + oracle replay.
constexpr const char* kGoldenV3Path = "tests/data/golden_v3.dctr";
constexpr uint64_t kGoldenV3Fnv = 0xee58f71dbb7d7c72ULL;

TEST(GoldenTrace, V3DecodesToThePinnedOps) {
  const io::Trace t = io::load_trace_file(source_path(kGoldenV3Path));
  EXPECT_EQ(t.num_vertices, kGoldenVertices);
  ASSERT_EQ(t.ops.size(), kGoldenOps);
  EXPECT_EQ(trace_fnv(t), kGoldenV3Fnv);
  // Byte-exact re-encode: encoder drift fails here.
  EXPECT_EQ(bytes_of(t), file_bytes(source_path(kGoldenV3Path)));
  const io::TraceFileInfo info = io::trace_info_file(source_path(kGoldenV3Path));
  EXPECT_EQ(info.version, io::kTraceVersionV3);
  EXPECT_EQ(info.ops, kGoldenOps);
  EXPECT_GT(info.size_queries, 0u);
  EXPECT_GT(info.rep_queries, 0u);
}

TEST(GoldenTrace, V3ReplaysAgainstTheDsuOracleOnEveryVariant) {
  const io::Trace t = io::load_trace_file(source_path(kGoldenV3Path));
  Oracle oracle(t.num_vertices);
  const std::vector<uint64_t> expected = oracle.replay(t.ops);
  for (const VariantInfo& v : all_variants()) {
    auto dc = v.make(t.num_vertices, true);
    EXPECT_EQ(harness::replay_trace(*dc, t.ops), expected) << v.name;
  }
}

TEST(GoldenTrace, ReplaysAgainstTheDsuOracleOnEveryVariant) {
  const io::Trace t = io::load_trace_file(source_path(kGolden[1].path));
  Oracle oracle(t.num_vertices);
  const std::vector<uint64_t> expected = oracle.replay(t.ops);
  for (const VariantInfo& v : all_variants()) {
    auto dc = v.make(t.num_vertices, true);
    EXPECT_EQ(harness::replay_trace(*dc, t.ops), expected) << v.name;
  }
}

// --- DCTR v3: the value-query vocabulary on the wire ------------------------

TEST(TraceV3, RoundTripsTheValueVocabulary) {
  for (const uint64_t seed : {2ull, 77ull}) {
    const io::Trace t = random_value_trace(5000, 700, seed);
    std::stringstream ss;
    io::save_trace(t, ss);
    EXPECT_EQ(io::load_trace(ss), t);
  }
  // Boolean-vocabulary traces are written as v3 too.
  const io::Trace plain = random_trace(300, 200, 5);
  std::stringstream ss;
  io::save_trace(plain, ss);
  EXPECT_EQ(ss.str()[4], static_cast<char>(io::kTraceVersionV3));
  EXPECT_EQ(io::load_trace(ss), plain);
}

TEST(TraceV3, RejectsBadKindBits) {
  // Hand-built v3 payload: header (|V|=4, 1 op) + a tag whose 3 kind bits
  // decode to 5 (> kRepresentative) must throw.
  auto header = [](uint64_t count) {
    std::string h = "DCTR";
    const auto u32 = [&](uint32_t v) {
      for (int i = 0; i < 4; ++i) h += static_cast<char>((v >> (8 * i)) & 0xff);
    };
    u32(3);  // version
    u32(1);  // flags: delta-varint
    u32(4);  // num_vertices
    for (int i = 0; i < 8; ++i)
      h += static_cast<char>((count >> (8 * i)) & 0xff);
    return h;
  };
  for (const unsigned kind : {5u, 6u, 7u}) {
    std::string b = header(1);
    b += static_cast<char>((0 << 3) | kind);  // du=0, bad kind
    b += static_cast<char>(0);                // dv=0
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error) << "kind " << kind;
  }
  {  // the same payload with kind 4 (representative) is valid
    std::string b = header(1);
    b += static_cast<char>((0 << 3) | 4);
    b += static_cast<char>(0);
    std::stringstream ss(b);
    const io::Trace t = io::load_trace(ss);
    ASSERT_EQ(t.ops.size(), 1u);
    EXPECT_EQ(t.ops[0], Op::representative(0));
  }
}

TEST(TraceV3, TruncationAndCountMismatchStayStrict) {
  const io::Trace t = random_value_trace(2000, 40, 3);
  const std::string bytes = bytes_of(t);
  for (std::size_t cut = 24; cut < bytes.size(); cut += 3) {
    std::stringstream ss(bytes.substr(0, cut));
    EXPECT_THROW(io::load_trace(ss), std::runtime_error) << "cut at " << cut;
  }
  {  // declared count larger than the payload holds
    std::string b = bytes;
    b[16] = static_cast<char>(static_cast<unsigned char>(b[16]) + 1);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
  {  // declared count smaller -> trailing payload bytes
    std::string b = bytes;
    b[16] = static_cast<char>(static_cast<unsigned char>(b[16]) - 1);
    std::stringstream ss(b);
    EXPECT_THROW(io::load_trace(ss), std::runtime_error);
  }
}

TEST(TraceV3, ReadSynthesisHitsTheTargetShare) {
  // A pure update stream: synthesize the paper's 80%-read mix from it.
  io::Trace updates;
  updates.num_vertices = 50;
  Xoshiro256 rng(13);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(50));
    auto v = static_cast<Vertex>(rng.next_below(49));
    if (v >= u) ++v;
    updates.ops.push_back(rng.next_below(4) == 0 ? Op::remove(u, v)
                                                 : Op::add(u, v));
  }
  const io::Trace mixed = io::synthesize_reads(updates, 80, false, 7);
  uint64_t reads = 0, value_reads = 0;
  for (const Op& op : mixed.ops) {
    reads += is_query(op.kind) ? 1 : 0;
    value_reads += static_cast<uint8_t>(op.kind) > 2 ? 1 : 0;
  }
  EXPECT_NEAR(100.0 * reads / mixed.ops.size(), 80.0, 2.0);
  EXPECT_EQ(value_reads, 0u);  // without --size-queries: connected only
  // Updates survive in order.
  std::vector<Op> kept;
  for (const Op& op : mixed.ops)
    if (is_update(op.kind)) kept.push_back(op);
  EXPECT_EQ(kept, updates.ops);

  // With size queries the probe rotation emits all three query kinds.
  const io::Trace sized = io::synthesize_reads(updates, 80, true, 7);
  uint64_t size_q = 0, rep_q = 0, conn_q = 0;
  for (const Op& op : sized.ops) {
    size_q += op.kind == OpKind::kComponentSize;
    rep_q += op.kind == OpKind::kRepresentative;
    conn_q += op.kind == OpKind::kConnected;
  }
  EXPECT_GT(size_q, 0u);
  EXPECT_GT(rep_q, 0u);
  EXPECT_GT(conn_q, 0u);
  // Deterministic per seed; replays against the oracle on two variants.
  EXPECT_EQ(io::synthesize_reads(updates, 80, true, 7), sized);
  Oracle oracle(sized.num_vertices);
  const std::vector<uint64_t> expected = oracle.replay(sized.ops);
  for (const char* variant : {"coarse", "full"}) {
    auto dc = make_variant(variant, sized.num_vertices);
    EXPECT_EQ(harness::replay_trace(*dc, sized.ops), expected) << variant;
  }
}

// --- SNAP temporal importer -------------------------------------------------

TEST(TemporalSnap, ParsesCommentsTimestampsAndSkipsLoops) {
  std::stringstream in(
      "# comment\n"
      "% another\n"
      "3 5 100\n"
      "5 3 90\n"       // reversed pair, earlier timestamp
      "7 7 80\n"       // self-loop: dropped
      "bogus line\n"   // malformed: skipped
      "8 9 100\n");
  const auto events = io::load_temporal_snap(in);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (io::TemporalEdge{3, 5, 100}));
  EXPECT_EQ(events[1], (io::TemporalEdge{5, 3, 90}));
  EXPECT_EQ(events[2], (io::TemporalEdge{8, 9, 100}));
}

TEST(TemporalSnap, UntimedFilesKeepOrderButMixingIsRejected) {
  // A plain (untimed) edge list is a valid temporal stream in file order...
  std::stringstream untimed("1 2\n3 4\n5 6\n");
  const auto events = io::load_temporal_snap(untimed);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t, 0u);
  EXPECT_EQ(events[2].t, 2u);
  // ...but one untimed line inside a timed file would sort its event far
  // out of order (index vs epoch timestamps): reject loudly instead.
  std::stringstream mixed("3 5 1200000000\n1 2\n8 9 1200000100\n");
  EXPECT_THROW(io::load_temporal_snap(mixed), std::runtime_error);
}

TEST(TemporalSnap, RejectsIdsThatDoNotFitAVertex) {
  // u32 truncation would produce a wrong-but-valid trace; and an id of
  // exactly 2^32-1 would wrap the max_id+1 universe computation to 0.
  std::stringstream big("4294967297 5 100\n");
  EXPECT_THROW(io::load_temporal_snap(big), std::runtime_error);
  std::stringstream edge("4294967295 5 100\n");
  EXPECT_THROW(io::load_temporal_snap(edge), std::runtime_error);
  std::stringstream ok("4294967294 5 100\n");
  EXPECT_EQ(io::load_temporal_snap(ok).size(), 1u);
}

TEST(TemporalSnap, ConversionSortsByTimeAndSizesTheUniverse) {
  std::vector<io::TemporalEdge> events = {
      {3, 5, 100}, {5, 3, 90}, {8, 9, 95}};
  const io::Trace t = io::temporal_to_trace(events);
  EXPECT_EQ(t.num_vertices, 10u);
  ASSERT_EQ(t.ops.size(), 3u);
  EXPECT_EQ(t.ops[0], Op::add(5, 3));  // t=90 first despite file order
  EXPECT_EQ(t.ops[1], Op::add(8, 9));
  EXPECT_EQ(t.ops[2], Op::add(3, 5));
}

TEST(TemporalSnap, DedupDropsLiveReAdds) {
  std::vector<io::TemporalEdge> events = {
      {1, 2, 10}, {2, 1, 20}, {1, 2, 30}, {3, 4, 40}};
  io::ConvertOptions raw;
  EXPECT_EQ(io::temporal_to_trace(events, raw).ops.size(), 4u);
  io::ConvertOptions dedup;
  dedup.dedup = true;
  const io::Trace t = io::temporal_to_trace(events, dedup);
  ASSERT_EQ(t.ops.size(), 2u);
  EXPECT_EQ(t.ops[0], Op::add(1, 2));
  EXPECT_EQ(t.ops[1], Op::add(3, 4));
}

TEST(TemporalSnap, WindowExpiresOldestAndBoundsTheLiveSet) {
  std::vector<io::TemporalEdge> events;
  for (Vertex i = 0; i < 40; ++i)
    events.push_back({i, static_cast<Vertex>(i + 100), i});
  io::ConvertOptions opts;
  opts.dedup = true;
  opts.window = 8;
  const io::Trace t = io::temporal_to_trace(events, opts);
  std::set<Edge> live;
  std::deque<Edge> fifo;
  for (const Op& op : t.ops) {
    const Edge e(op.u, op.v);
    if (op.kind == OpKind::kAdd) {
      EXPECT_TRUE(live.insert(e).second);
      fifo.push_back(e);
    } else if (op.kind == OpKind::kRemove) {
      // FIFO contract: every remove targets the oldest live edge.
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(e, fifo.front());
      fifo.pop_front();
      EXPECT_EQ(live.erase(e), 1u);
    }
    EXPECT_LE(live.size(), opts.window);
  }
  EXPECT_EQ(live.size(), opts.window);  // the stream churned through the cap
  EXPECT_EQ(t.ops.size(), 40u + (40u - opts.window));
}

TEST(TemporalSnap, QueryProbesAreSeededAndLiveOnly) {
  std::vector<io::TemporalEdge> events;
  for (Vertex i = 0; i < 60; ++i)
    events.push_back({i, static_cast<Vertex>(i + 1), i});
  io::ConvertOptions opts;
  opts.query_every = 4;
  opts.seed = 7;
  const io::Trace a = io::temporal_to_trace(events, opts);
  EXPECT_EQ(a, io::temporal_to_trace(events, opts));  // deterministic
  opts.seed = 8;
  const io::Trace b = io::temporal_to_trace(events, opts);
  uint64_t queries = 0;
  for (const Op& op : a.ops) queries += op.kind == OpKind::kConnected;
  EXPECT_EQ(queries, 60u / 4u);
  EXPECT_NE(a, b);  // probe endpoints follow the seed
}

TEST(TemporalSnap, CheckedInSampleConvertsBelowThreeBytesPerOp) {
  // The acceptance bar the CI job also enforces through trace_convert: the
  // shipped SNAP sample compresses to <= 3 bytes/op in DCTR v3, and its
  // replay agrees with the sequential oracle on every variant.
  const auto events =
      io::load_temporal_snap_file(source_path("data/sample_temporal.txt"));
  EXPECT_GE(events.size(), 500u);
  io::ConvertOptions opts;
  opts.dedup = true;
  opts.window = 150;
  opts.query_every = 5;
  const io::Trace t = io::temporal_to_trace(events, opts);
  EXPECT_GE(t.ops.size(), 900u);

  const std::string path = ::testing::TempDir() + "sample_converted.dctr";
  io::save_trace_file(t, path);
  const io::TraceFileInfo info = io::trace_info_file(path);
  EXPECT_EQ(info.version, io::kTraceVersionV3);
  EXPECT_GT(info.removes, 0u);
  EXPECT_GT(info.queries, 0u);
  EXPECT_LE(info.bytes_per_op, 3.0);
  EXPECT_EQ(io::load_trace_file(path), t);
  std::remove(path.c_str());

  Oracle oracle(t.num_vertices);
  const std::vector<uint64_t> expected = oracle.replay(t.ops);
  for (const char* variant : {"coarse", "full"}) {
    auto dc = make_variant(variant, t.num_vertices);
    EXPECT_EQ(harness::replay_trace(*dc, t.ops), expected) << variant;
  }
}

}  // namespace
}  // namespace condyn
