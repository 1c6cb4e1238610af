// Registry entries for the sharded facade family, variants (15)-(16):
// sharded<inner> over two inner families chosen by capability profile.
#include <deque>
#include <string>

#include "api/registry.hpp"
#include "core/sharded_dc.hpp"

namespace condyn {

namespace {

/// First already-registered variant matching `pred`; `preferred` (the
/// paper's flagship of that profile) wins when it both exists and matches,
/// so the selection is caps-driven but stable under registry reordering.
template <typename Pred>
const VariantInfo* pick_inner(const VariantRegistry& r, Pred pred,
                              const char* preferred) {
  if (const VariantInfo* p = r.find(preferred); p != nullptr && pred(p->caps))
    return p;
  for (const VariantInfo& v : r.variants()) {
    if (pred(v.caps)) return &v;
  }
  return nullptr;
}

VariantCaps sharded_caps() {
  VariantCaps c;
  c.native_batch = true;  // apply_batch fans per-shard sub-batches out
  c.sized_components = true;       // boundary index aggregates inner sizes
  c.stable_representative = true;  // min over member shard reps, global ids
  // Cross-shard reads may take the index mutexes, so the facade does not
  // claim lock_free_reads or label_cache even when its inner variant does;
  // batches run concurrently with single ops (no atomic_batch).
  c.internal_parallel = true;  // the per-shard fan-out gang (like pbd)
  return c;
}

/// VariantInfo::name is a const char*; registrations are process-lifetime
/// singletons, so the names live in a list that is never freed (the same
/// lifetime the string literals of the other families have) but stays
/// reachable, so leak checkers do not report it. A deque never moves its
/// elements, so each c_str() stays valid.
const char* intern_name(std::string s) {
  static auto* names = new std::deque<std::string>;
  return names->emplace_back(std::move(s)).c_str();
}

void add_sharded(VariantRegistry& r, const VariantInfo* inner,
                 const char* description) {
  if (inner == nullptr) return;
  const std::string name = std::string("sharded<") + inner->name + ">";
  // The inner builder is copied (not referenced): VariantInfo storage is
  // reserve()d to kReserved, but a by-value capture is immune to that
  // detail outliving this registration pass.
  auto make_inner = inner->make;
  r.add(intern_name(name), description, sharded_caps(),
        [name, make_inner](Vertex n, bool sampling) {
          return std::make_unique<ShardedDc>(n, name, make_inner, sampling);
        });
}

}  // namespace

void register_sharded_variants(VariantRegistry& r) {
  // Inner A — the lock-free-read flagship: non-blocking queries, per-
  // component update synchronization, label-cache capable. Preferred name
  // "full" (the paper's algorithm); any variant with the same profile
  // qualifies if the registry ever changes shape.
  const VariantInfo* nb = pick_inner(
      r,
      [](const VariantCaps& c) {
        return c.lock_free_reads && c.label_cache && !c.atomic_batch &&
               !c.combining && !c.internal_parallel;
      },
      "full");
  add_sharded(r, nb,
              "S-way sharded facade over the lock-free-reads flagship: "
              "per-shard structures + boundary index over representatives "
              "(DC_SHARDS, DESIGN.md §10)");

  // Inner B — the simplest atomically-batched engine: one lock per shard
  // amortized over whole sub-batches. Preferred name "coarse".
  const VariantInfo* coarse = pick_inner(
      r,
      [](const VariantCaps& c) {
        return c.atomic_batch && !c.lock_free_reads && !c.combining &&
               !c.internal_parallel;
      },
      "coarse");
  add_sharded(r, coarse,
              "S-way sharded facade over the coarse-locked engine: shard "
              "parallelism from partitioning alone (DC_SHARDS)");
}

}  // namespace condyn
