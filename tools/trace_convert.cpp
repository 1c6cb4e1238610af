// trace_convert — SNAP-style temporal edge lists in, DCTR traces out
// (DESIGN.md §6.5). The importer behind the trace ecosystem: public graph
// streams become replayable workloads for every scenario/variant pair.
//
//   trace_convert convert <in.txt> <out.dctr> [options]
//       --dedup        drop re-adds of a live edge
//       --window N     cap live edges at N; the oldest is removed first
//                      (turns an insert-only stream fully dynamic)
//       --queries N    insert a connected() probe every N update ops
//       --reads P      synthesize a read-heavy mix: interleave query probes
//                      until reads are P% of the ops (the paper's 80/99%
//                      mixes from pure update streams)
//       --size-queries with --reads: probes rotate connected /
//                      component_size / representative (emits DCTR v3)
//       --seed S       probe endpoint RNG seed (default 42)
//   trace_convert info <trace.dctr>
//       print header fields, op mix and bytes/op (strict decode: a corrupt
//       trace fails here instead of at replay time)
//   trace_convert recompress <in.dctr> <out.dctr> [--reads P]
//                                                 [--size-queries] [--seed S]
//       re-encode a trace of any version as v3; without --reads ops are
//       preserved exactly, with it reads are synthesized as in convert
//   trace_convert snapshot <snap.dcsn> [out.dctr]
//       inspect a DCSN ingest snapshot (DESIGN.md §11.3): applied_seq,
//       vertex count and live-edge count; with out.dctr, extract the
//       embedded live-edge trace as a standalone DCTR file — a crash
//       snapshot becomes a prefill/replay workload for any scenario
//
// Output format: DCTR v3, the only version the writer produces; info and
// recompress read v1, v2 and v3.
// Subcommands also accept the --info / --recompress spellings.
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "graph/snapshot.hpp"

namespace {

using namespace condyn;

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_convert convert <in.txt> <out.dctr>\n"
      "         [--dedup] [--window N] [--queries N] [--reads P]\n"
      "         [--size-queries] [--seed S]\n"
      "       trace_convert info <trace.dctr>\n"
      "       trace_convert recompress <in.dctr> <out.dctr>\n"
      "         [--reads P] [--size-queries] [--seed S]\n"
      "       trace_convert snapshot <snap.dcsn> [out.dctr]\n");
  return 2;
}

bool flag(std::vector<std::string>& args, const char* name) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == name) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

bool value_flag(std::vector<std::string>& args, const char* name,
                uint64_t* out) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == name) {
      if (it + 1 == args.end()) throw std::runtime_error(
          std::string(name) + " needs a value");
      *out = std::stoull(*(it + 1));
      args.erase(it, it + 2);
      return true;
    }
  }
  return false;
}

void print_info(const std::string& path) {
  const io::TraceFileInfo info = io::trace_info_file(path);
  std::printf("trace: %s\n", path.c_str());
  std::printf("  version:      %u%s\n", info.version,
              info.version >= io::kTraceVersionV2 ? " (delta+varint)" : "");
  if (info.version >= io::kTraceVersionV2)
    std::printf("  flags:        0x%x\n", info.flags);
  std::printf("  vertices:     %u\n", info.num_vertices);
  std::printf("  ops:          %llu (adds %llu, removes %llu, queries %llu, "
              "size %llu, rep %llu)\n",
              static_cast<unsigned long long>(info.ops),
              static_cast<unsigned long long>(info.adds),
              static_cast<unsigned long long>(info.removes),
              static_cast<unsigned long long>(info.queries),
              static_cast<unsigned long long>(info.size_queries),
              static_cast<unsigned long long>(info.rep_queries));
  std::printf("  file bytes:   %llu (header %llu, payload %llu)\n",
              static_cast<unsigned long long>(info.file_bytes),
              static_cast<unsigned long long>(info.header_bytes),
              static_cast<unsigned long long>(info.payload_bytes));
  std::printf("  bytes/op:     %.2f\n", info.bytes_per_op);
}

struct ReadSynth {
  uint64_t percent = 0;  // 0 = off
  bool size_queries = false;
  uint64_t seed = 42;
};

/// Pop the read-synthesis knobs shared by convert and recompress.
ReadSynth read_synth_flags(std::vector<std::string>& args) {
  ReadSynth rs;
  value_flag(args, "--reads", &rs.percent);
  rs.size_queries = flag(args, "--size-queries");
  value_flag(args, "--seed", &rs.seed);
  return rs;
}

io::Trace apply_read_synth(io::Trace t, const ReadSynth& rs) {
  if (rs.percent == 0) return t;
  return io::synthesize_reads(t, static_cast<int>(rs.percent),
                              rs.size_queries, rs.seed);
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  while (cmd.size() >= 2 && cmd[0] == '-') cmd.erase(0, 1);  // --info == info
  std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "info") {
    if (args.size() != 1) return usage();
    print_info(args[0]);
    return 0;
  }

  if (cmd == "recompress") {
    const ReadSynth rs = read_synth_flags(args);
    if (args.size() != 2) return usage();
    const io::Trace t =
        apply_read_synth(io::load_trace_file(args[0]), rs);
    io::save_trace_file(t, args[1]);
    std::printf("recompressed %zu ops: %s -> %s\n", t.ops.size(),
                args[0].c_str(), args[1].c_str());
    print_info(args[1]);
    return 0;
  }

  if (cmd == "snapshot") {
    if (args.empty() || args.size() > 2) return usage();
    const io::Snapshot s = io::load_snapshot_file(args[0]);
    std::printf("snapshot: %s\n", args[0].c_str());
    std::printf("  applied_seq:  %llu\n",
                static_cast<unsigned long long>(s.applied_seq));
    std::printf("  vertices:     %u\n", s.edges.num_vertices);
    std::printf("  live edges:   %zu\n", s.edges.ops.size());
    if (args.size() == 2) {
      io::save_trace_file(s.edges, args[1]);
      std::printf("extracted live-edge trace -> %s\n", args[1].c_str());
      print_info(args[1]);
    }
    return 0;
  }

  if (cmd == "convert") {
    io::ConvertOptions opts;
    opts.dedup = flag(args, "--dedup");
    uint64_t window = 0, queries = 0;
    value_flag(args, "--window", &window);
    value_flag(args, "--queries", &queries);
    const ReadSynth rs = read_synth_flags(args);
    opts.seed = rs.seed;  // one --seed drives probes and read synthesis
    opts.window = static_cast<std::size_t>(window);
    opts.query_every = static_cast<uint32_t>(queries);
    if (args.size() != 2) return usage();
    const auto events = io::load_temporal_snap_file(args[0]);
    if (events.empty())
      throw std::runtime_error(args[0] + " holds no temporal edges");
    const io::Trace t =
        apply_read_synth(io::temporal_to_trace(events, opts), rs);
    io::save_trace_file(t, args[1]);
    std::printf("converted %zu events -> %zu ops, |V|=%u: %s\n",
                events.size(), t.ops.size(), t.num_vertices, args[1].c_str());
    print_info(args[1]);
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_convert: %s\n", e.what());
    return 1;
  }
}
