#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/dynamic_connectivity.hpp"

namespace condyn {

/// Capability flags a variant declares when it registers (DESIGN.md §5.2).
/// The harness, benches and tests branch on these instead of hard-coding
/// variant names.
struct VariantCaps {
  /// apply_batch is a real batched implementation, not the per-op fallback.
  bool native_batch = false;
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
  /// component_size() is a native O(find_root) path over the ETT's
  /// vertex-count augmentation rather than the base class's O(n)
  /// connected() scan (Query API v2, DESIGN.md §5.4).
  bool sized_components = false;
  /// representative() natively returns the canonical (smallest-id) member
  /// of the component, stable between updates of that component.
  bool stable_representative = false;
  /// Reads route through the epoch-published component-label cache
  /// (DESIGN.md §8): O(1) hits for connected/component_size/representative
  /// and snapshot-consistent components(), gated at construction by
  /// DC_LABEL_CACHE. Set by the families whose reads are lock-free (the
  /// cache's fallback is exactly that read path).
  bool label_cache = false;
};

/// One evaluated algorithm combination (paper §5.2; numbering kept
/// consistent with the plots and with DESIGN.md §1).
struct VariantInfo {
  int id;            ///< 1..13, the paper's numbering (registration order)
  const char* name;  ///< stable identifier used in tables ("coarse", ...)
  const char* description;
  VariantCaps caps;
  /// Builder: (num_vertices, sampling) -> instance.
  std::function<std::unique_ptr<DynamicConnectivity>(Vertex, bool)> make;
};

/// Name -> builder + capabilities registry behind the factory. Variant
/// families register themselves through family registration functions (one
/// per translation unit, see register_builtin_variants below) rather than
/// static initializers: with a static library, an object file containing
/// only an unreferenced registrar is silently dropped by the linker, so the
/// factory pulls each family in explicitly.
class VariantRegistry {
 public:
  /// Process-wide registry, with the built-in families registered on first
  /// access.
  static VariantRegistry& instance();

  /// Register a variant; ids are assigned sequentially in registration
  /// order. Throws std::invalid_argument on duplicate names, or when the
  /// registry is full (kReserved entries — the bound that keeps previously
  /// returned VariantInfo pointers stable). Not thread-safe: perform custom
  /// registrations at startup, before concurrent lookups begin.
  int add(const char* name, const char* description, VariantCaps caps,
          std::function<std::unique_ptr<DynamicConnectivity>(Vertex, bool)>
              make);

  /// Capacity bound: 13 built-ins plus room for custom variants.
  static constexpr std::size_t kReserved = 32;

  const std::vector<VariantInfo>& variants() const noexcept {
    return variants_;
  }
  const VariantInfo* find(const std::string& name) const noexcept;
  const VariantInfo* find(int id) const noexcept;

 private:
  VariantRegistry() = default;
  std::vector<VariantInfo> variants_;
};

/// Family registration hooks, each defined next to the variants it creates.
void register_coarse_variants(VariantRegistry& r);     // (1)–(5)
void register_fine_variants(VariantRegistry& r);       // (6)–(8)
void register_nb_variants(VariantRegistry& r);         // (9)–(11)
void register_combining_variants(VariantRegistry& r);  // (12)–(13)

}  // namespace condyn
