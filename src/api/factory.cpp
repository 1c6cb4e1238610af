#include "api/factory.hpp"

#include <cstddef>
#include <iterator>
#include <stdexcept>

#include "combining/flat_combining.hpp"
#include "combining/parallel_combining.hpp"
#include "core/coarse_dc.hpp"
#include "core/fine_dc.hpp"
#include "core/label_cache.hpp"
#include "core/nb_hdt.hpp"
#include "util/elision_lock.hpp"
#include "util/rw_lock.hpp"
#include "util/spinlock.hpp"

namespace condyn {

namespace {

/// A variant name as a template argument, so one literal gives both the
/// table's name and the built instance's name().
template <std::size_t N>
struct Name {
  char s[N];
  constexpr Name(const char (&str)[N]) {
    for (std::size_t i = 0; i < N; ++i) s[i] = str[i];
  }
};

/// The table entry of facade Dc, built as Dc(n, args..., name, sampling),
/// plus the label-cache flag when kCaps.label_cache is set: the one place
/// that decides whether an engine builds the cache (DC_LABEL_CACHE=0
/// turns it off for every variant).
template <Name kName, typename Dc, VariantCaps kCaps, auto... kArgs>
constexpr VariantInfo variant(int id, const char* description) {
  return {id, kName.s, description, kCaps,
          [](Vertex n, bool sampling) -> std::unique_ptr<DynamicConnectivity> {
            if constexpr (kCaps.label_cache) {
              return std::make_unique<Dc>(n, kArgs..., kName.s, sampling,
                                          LabelCache::env_enabled());
            } else {
              return std::make_unique<Dc>(n, kArgs..., kName.s, sampling);
            }
          }};
}

// Cache hits and the cache's fallback are lock-free (§8), so exactly the
// families with lock-free reads carry the label cache. Fine-grained and
// full batches stay concurrent with other threads: not atomic_batch.
constexpr VariantCaps kCoarse{.atomic_batch = true};
constexpr VariantCaps kCoarseNbReads{
    .lock_free_reads = true, .atomic_batch = true, .label_cache = true};
constexpr VariantCaps kFine{};
constexpr VariantCaps kNbReads{.lock_free_reads = true, .label_cache = true};
constexpr VariantCaps kParallelCombining{.atomic_batch = true,
                                         .combining = true};
constexpr VariantCaps kFlatCombining{
    .lock_free_reads = true, .atomic_batch = true, .combining = true};

constexpr VariantInfo kVariants[] = {
    // Coarse-grained family, (1)-(5).
    variant<"coarse", CoarseDc<SpinLock, false>, kCoarse>(
        1, "coarse-grained locking for all operations"),
    variant<"coarse-rw", CoarseDc<RwSpinLock, false>, kCoarse>(
        2, "coarse-grained readers-writer lock"),
    variant<"coarse-nbreads", CoarseDc<SpinLock, true>, kCoarseNbReads>(
        3, "coarse-grained updates + non-blocking reads"),
    variant<"coarse-htm", CoarseDc<ElisionLock, false>, kCoarse>(
        4, "coarse-grained with HTM lock elision (all ops)"),
    variant<"coarse-htm-nbreads", CoarseDc<ElisionLock, true>,
            kCoarseNbReads>(
        5, "HTM-elided lock for updates + non-blocking reads"),
    // Fine-grained family, (6)-(8).
    variant<"fine", FineDc<FineReadMode::kLocked>, kFine>(
        6, "fine-grained per-component locks for all operations"),
    variant<"fine-rw", FineDc<FineReadMode::kSharedLocks>, kFine>(
        7, "fine-grained readers-writer component locks"),
    variant<"fine-nbreads", FineDc<FineReadMode::kNonBlocking>, kNbReads>(
        8, "fine-grained updates + non-blocking reads"),
    // The paper's full algorithm, (9)-(11).
    variant<"full", NbDc, kNbReads, NbLockMode::kFine>(
        9,
        "our algorithm: fine-grained + non-blocking reads + lock-free "
        "non-spanning updates"),
    variant<"full-coarse", NbDc, kNbReads, NbLockMode::kCoarseSpin>(
        10, "our algorithm with a coarse lock for spanning updates"),
    variant<"full-coarse-htm", NbDc, kNbReads, NbLockMode::kCoarseElision>(
        11, "our algorithm with an HTM-elided coarse lock"),
    // Combining baselines, (12)-(13).
    variant<"parallel-combining", ParallelCombiningDc, kParallelCombining>(
        12,
        "parallel combining (Aksenov et al.): batched updates, parallel "
        "read phase"),
    variant<"fc-nbreads", FlatCombiningDc, kFlatCombining>(
        13, "flat combining for updates + our non-blocking reads"),
};

// find_variant(int) indexes the table by id.
static_assert([] {
  for (std::size_t i = 0; i < std::size(kVariants); ++i) {
    if (kVariants[i].id != static_cast<int>(i) + 1) return false;
  }
  return true;
}());

}  // namespace

std::span<const VariantInfo> all_variants() { return kVariants; }

const VariantInfo* find_variant(const std::string& name) {
  for (const VariantInfo& v : kVariants) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

const VariantInfo* find_variant(int id) {
  if (id < 1 || id > static_cast<int>(std::size(kVariants))) return nullptr;
  return &kVariants[id - 1];
}

std::unique_ptr<DynamicConnectivity> make_variant(int id, Vertex n,
                                                  bool sampling) {
  const VariantInfo* v = find_variant(id);
  if (v == nullptr) {
    throw std::invalid_argument("unknown variant id " + std::to_string(id));
  }
  return v->make(n, sampling);
}

std::unique_ptr<DynamicConnectivity> make_variant(const std::string& name,
                                                  Vertex n, bool sampling) {
  const VariantInfo* v = find_variant(name);
  if (v == nullptr) {
    throw std::invalid_argument("unknown variant name \"" + name + "\"");
  }
  return v->make(n, sampling);
}

}  // namespace condyn
