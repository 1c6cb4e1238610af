// Batch processing through the apply_batch pipeline.
//
// Prior parallel approaches (Acar et al.'s batch-dynamic algorithm, the
// combining-based schemes) need operations grouped into same-type batches.
// The paper's point (§2): a *concurrent* structure subsumes them — hand each
// worker an arbitrary slice of a mixed batch and let them run. This example
// submits mixed batches of adds/removes/queries through the batch API
// (DESIGN.md §5): a sequential reference replays each region's batches on a
// table-enumerated single-lock variant, then workers feed the same
// batches to a concurrent variant via apply_batch — one call per batch, not
// one per op — and the per-op answers must agree.
#include <cstdio>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "util/random.hpp"

namespace {

using namespace condyn;

// Mixed batches: build up a graph region by region, with queries sprinkled
// in. Ops in different regions are independent, so any interleaving of the
// per-region batch sequences yields the same answers — which is what makes
// the parallel replay comparable to the sequential one.
std::vector<std::vector<Op>> make_regional_programs(Vertex region_size,
                                                    unsigned regions,
                                                    uint64_t seed) {
  std::vector<std::vector<Op>> program(regions);
  for (unsigned r = 0; r < regions; ++r) {
    Xoshiro256 rng(seed + r);
    const Vertex base = r * region_size;
    auto& ops = program[r];
    for (Vertex i = 0; i + 1 < region_size; ++i) {
      ops.push_back(Op::add(base + i, base + i + 1));
      if (i % 7 == 0) {
        ops.push_back(Op::connected(
            base, base + static_cast<Vertex>(rng.next_below(i + 1))));
      }
      if (i % 11 == 3) {  // churn an already-built edge, inside one batch
        const Vertex j = static_cast<Vertex>(rng.next_below(i));
        ops.push_back(Op::remove(base + j, base + j + 1));
        ops.push_back(Op::add(base + j, base + j + 1));
      }
    }
    ops.push_back(Op::connected(base, base + region_size - 1));
  }
  return program;
}

std::vector<BatchResult> replay_batched(DynamicConnectivity& dc,
                                        const std::vector<Op>& ops,
                                        std::size_t batch_size) {
  std::vector<BatchResult> out;
  for (std::size_t pos = 0; pos < ops.size(); pos += batch_size) {
    const std::size_t len = std::min(batch_size, ops.size() - pos);
    out.push_back(dc.apply_batch({&ops[pos], len}));
  }
  return out;
}

bool same_answers(const std::vector<BatchResult>& a,
                  const std::vector<BatchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].values != b[i].values) return false;
  }
  return true;
}

}  // namespace

int main() {
  const Vertex kRegion = 2000;
  const unsigned kRegions = 4;
  const std::size_t kBatch = 128;
  const Vertex n = kRegion * kRegions;

  auto program = make_regional_programs(kRegion, kRegions, 31);
  std::size_t total = 0;
  for (const auto& p : program) total += p.size();
  std::printf("mixed program: %zu operations across %u regions, batch=%zu\n",
              total, kRegions, kBatch);

  // Sequential reference: any atomic-batch variant from the table.
  const char* seq_name = nullptr;
  for (const VariantInfo& v : all_variants()) {
    if (v.caps.atomic_batch && !v.caps.combining) {
      seq_name = v.name;
      break;
    }
  }
  if (seq_name == nullptr) {
    std::fprintf(stderr, "no atomic-batch variant registered for the "
                         "sequential reference\n");
    return 1;
  }
  auto seq = make_variant(seq_name, n);
  std::vector<std::vector<BatchResult>> expected(kRegions);
  for (unsigned r = 0; r < kRegions; ++r) {
    expected[r] = replay_batched(*seq, program[r], kBatch);
  }

  // Parallel: one worker per region, all submitting batches to one
  // concurrent structure through apply_batch. Picked by capability, not by
  // name: the first variant with lock-free reads, otherwise the first one.
  const char* conc_name = all_variants().front().name;
  for (const VariantInfo& v : all_variants()) {
    if (v.caps.lock_free_reads) {
      conc_name = v.name;
      break;
    }
  }
  auto conc = make_variant(conc_name, n);
  std::vector<std::vector<BatchResult>> got(kRegions);
  {
    std::vector<std::thread> workers;
    for (unsigned r = 0; r < kRegions; ++r) {
      workers.emplace_back(
          [&, r] { got[r] = replay_batched(*conc, program[r], kBatch); });
    }
    for (auto& t : workers) t.join();
  }

  std::size_t mismatches = 0;
  for (unsigned r = 0; r < kRegions; ++r) {
    if (!same_answers(got[r], expected[r])) ++mismatches;
  }
  std::printf("reference variant: %s   concurrent variant: %s\n", seq_name,
              conc->name().c_str());
  std::printf("per-region batch results match sequential replay: %s\n",
              mismatches == 0 ? "yes" : "NO");
  return mismatches == 0 ? 0 : 1;
}
