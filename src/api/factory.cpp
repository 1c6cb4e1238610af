#include "api/factory.hpp"

#include <cstddef>
#include <iterator>
#include <stdexcept>

#include "combining/flat_combining.hpp"
#include "combining/parallel_combining.hpp"
#include "core/coarse_dc.hpp"
#include "core/fine_dc.hpp"
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

/// The table entry of facade Dc, built as Dc(n, args..., name, sampling).
template <Name kName, typename Dc, auto... kArgs>
constexpr VariantInfo variant(int id, const char* description,
                              VariantCaps caps) {
  return {id, kName.s, description, caps,
          [](Vertex n, bool sampling) -> std::unique_ptr<DynamicConnectivity> {
            return std::make_unique<Dc>(n, kArgs..., kName.s, sampling);
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
    variant<"coarse", CoarseDc<SpinLock, false>>(
        1, "coarse-grained locking for all operations", kCoarse),
    variant<"coarse-rw", CoarseDc<RwSpinLock, false>>(
        2, "coarse-grained readers-writer lock", kCoarse),
    variant<"coarse-nbreads", CoarseDc<SpinLock, true>>(
        3, "coarse-grained updates + non-blocking reads", kCoarseNbReads),
    variant<"coarse-htm", CoarseDc<ElisionLock, false>>(
        4, "coarse-grained with HTM lock elision (all ops)", kCoarse),
    variant<"coarse-htm-nbreads", CoarseDc<ElisionLock, true>>(
        5, "HTM-elided lock for updates + non-blocking reads",
        kCoarseNbReads),
    // Fine-grained family, (6)-(8).
    variant<"fine", FineDc<FineReadMode::kLocked>>(
        6, "fine-grained per-component locks for all operations", kFine),
    variant<"fine-rw", FineDc<FineReadMode::kSharedLocks>>(
        7, "fine-grained readers-writer component locks", kFine),
    variant<"fine-nbreads", FineDc<FineReadMode::kNonBlocking>>(
        8, "fine-grained updates + non-blocking reads", kNbReads),
    // The paper's full algorithm, (9)-(11).
    variant<"full", NbDc, NbLockMode::kFine>(
        9,
        "our algorithm: fine-grained + non-blocking reads + lock-free "
        "non-spanning updates",
        kNbReads),
    variant<"full-coarse", NbDc, NbLockMode::kCoarseSpin>(
        10, "our algorithm with a coarse lock for spanning updates", kNbReads),
    variant<"full-coarse-htm", NbDc, NbLockMode::kCoarseElision>(
        11, "our algorithm with an HTM-elided coarse lock", kNbReads),
    // Combining baselines, (12)-(13).
    variant<"parallel-combining", ParallelCombiningDc>(
        12,
        "parallel combining (Aksenov et al.): batched updates, parallel "
        "read phase",
        kParallelCombining),
    variant<"fc-nbreads", FlatCombiningDc>(
        13, "flat combining for updates + our non-blocking reads",
        kFlatCombining),
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
