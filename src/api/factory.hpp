#pragma once

#include <memory>
#include <span>
#include <string>

#include "api/dynamic_connectivity.hpp"

namespace condyn {

/// Capability flags of a variant (DESIGN.md §5.2). The harness, benches and
/// tests branch on these instead of hard-coding variant names. Every variant
/// has a native apply_batch and native component_size/representative.
struct VariantCaps {
  /// connected() never blocks (Listing 1's lock-free read path).
  bool lock_free_reads = false;
  /// apply_batch applies update-containing batches atomically with respect
  /// to concurrent callers (coarse-locked and combining families).
  /// Pure-read batches may instead run as individual lock-free queries
  /// when lock_free_reads is also set — see DynamicConnectivity::apply_batch.
  bool atomic_batch = false;
  /// Updates funnel through a combining substrate (one thread applies
  /// everyone's published operations).
  bool combining = false;
  /// The engine builds the epoch-published component-label cache (DESIGN.md
  /// §8): O(1) hits for connected/component_size/representative and
  /// snapshot-consistent components(). The only switch for the cache: the
  /// factory passes it to the engine, unless DC_LABEL_CACHE=0. Set by the
  /// families whose reads are lock-free (the cache's fallback is exactly
  /// that read path).
  bool label_cache = false;
};

/// One evaluated algorithm combination (paper §5.2; numbering kept
/// consistent with the plots and with DESIGN.md §1).
struct VariantInfo {
  int id;            ///< 1..13, the paper's numbering
  const char* name;  ///< stable identifier used in tables ("coarse", ...)
  const char* description;
  VariantCaps caps;
  /// Builder: (num_vertices, sampling) -> instance.
  std::unique_ptr<DynamicConnectivity> (*make)(Vertex n, bool sampling);
};

/// The constant variant table, in paper order (ids 1..13).
std::span<const VariantInfo> all_variants();

/// Lookup by stable name / id; nullptr when unknown.
const VariantInfo* find_variant(const std::string& name);
const VariantInfo* find_variant(int id);

/// Construct variant `id` (1..13) for an n-vertex graph. `sampling` toggles
/// the Iyer-et-al. replacement-sampling heuristic (on for every variant in
/// the paper's experiments; the ablation bench turns it off).
std::unique_ptr<DynamicConnectivity> make_variant(int id, Vertex n,
                                                  bool sampling = true);

/// Construct by stable name; throws std::invalid_argument on unknown names.
std::unique_ptr<DynamicConnectivity> make_variant(const std::string& name,
                                                  Vertex n,
                                                  bool sampling = true);

}  // namespace condyn
