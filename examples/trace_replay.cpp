// Trace record / replay walkthrough: freeze a workload scenario into the
// binary trace format (graph/io.hpp), then replay the identical operation
// stream on two different algorithm variants and check they answer every
// operation the same way — the scenario engine's apples-to-apples tool.
//
// Exits non-zero on any disagreement, so CI runs it as a smoke check.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/factory.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness/scenario.hpp"

int main() {
  using namespace condyn;

  const Graph g = gen::erdos_renyi(300, 900, /*seed=*/7);

  // 1. Pick a registered scenario and freeze it: the recorded trace contains
  //    the scenario's prefill plus 5000 stream ops as one linear program.
  const harness::ScenarioInfo* scenario = harness::find_scenario("zipfian");
  if (scenario == nullptr) {
    std::fprintf(stderr, "zipfian scenario missing from the registry\n");
    return 1;
  }
  harness::RunConfig cfg;
  cfg.threads = 1;
  cfg.read_percent = 60;
  cfg.seed = 2026;
  const io::Trace trace = harness::record_trace(*scenario, g, cfg, 5000);
  std::printf("recorded %zu ops of scenario \"%s\" (|V|=%u)\n",
              trace.ops.size(), scenario->name, trace.num_vertices);

  // 2. Round-trip through the on-disk format, as a cross-machine trace
  //    would. save_trace_file writes the compressed DCTR v3 format;
  //    --info-style stats show what delta+varint buys over a fixed 9-byte
  //    op (kind, u, v) — the uncompressed layout DCTR v1 used.
  const std::string path = "example_trace.bin";
  io::save_trace_file(trace, path);
  const io::TraceFileInfo info = io::trace_info_file(path);
  std::printf("saved as DCTR v%u: %.2f bytes/op (9.00 uncompressed)\n",
              info.version, info.bytes_per_op);
  const io::Trace loaded = io::load_trace_file(path);
  std::remove(path.c_str());
  if (!(loaded == trace)) {
    std::fprintf(stderr, "trace changed across save/load!\n");
    return 1;
  }

  // 3. Replay on two very different variants: the global-lock baseline and
  //    the paper's lock-free algorithm must agree on every single result.
  auto coarse = make_variant("coarse", trace.num_vertices);
  auto full = make_variant("full", trace.num_vertices);
  const auto a = harness::replay_trace(*coarse, loaded.ops);
  const auto b = harness::replay_trace(*full, loaded.ops);
  std::size_t queries = 0, agree = 0;
  for (std::size_t i = 0; i < loaded.ops.size(); ++i) {
    if (loaded.ops[i].kind != OpKind::kConnected) continue;
    ++queries;
    agree += a[i] == b[i];
  }
  std::printf("replayed on coarse and full: %zu/%zu queries agree\n", agree,
              queries);
  if (a != b) {
    std::fprintf(stderr, "variants disagreed on a replayed trace!\n");
    return 1;
  }

  // 4. Value queries replay identically too: synthesize a size-query-heavy
  //    mix (trace_convert --reads 70 --size-queries does the same) and
  //    compare the raw values — the
  //    representative is canonical (smallest member id), so even it must
  //    agree across variants.
  const io::Trace mixed = io::synthesize_reads(loaded, 70, true, 11);
  const std::string mixed_path = "example_trace_mixed.bin";
  io::save_trace_file(mixed, mixed_path);
  const io::TraceFileInfo mixed_info = io::trace_info_file(mixed_path);
  std::remove(mixed_path.c_str());
  std::printf("synthesized 70%%-read mix: DCTR v%u, %llu size + %llu "
              "representative queries\n",
              mixed_info.version,
              static_cast<unsigned long long>(mixed_info.size_queries),
              static_cast<unsigned long long>(mixed_info.rep_queries));
  auto coarse2 = make_variant("coarse", mixed.num_vertices);
  auto full2 = make_variant("full", mixed.num_vertices);
  if (harness::replay_trace(*coarse2, mixed.ops) !=
      harness::replay_trace(*full2, mixed.ops)) {
    std::fprintf(stderr, "variants disagreed on value queries!\n");
    return 1;
  }
  std::printf("value-query replay agrees across variants\n");
  return 0;
}
