#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/graph.hpp"

namespace condyn::ett {
class Forest;
struct ChainRead;
}  // namespace condyn::ett

namespace condyn {

/// Published per-vertex component labels with per-component invalidation:
/// the read-mostly fast path (DESIGN.md §8).
///
/// The paper's lock-free read (Listing 1) walks O(log n) parent pointers per
/// query. For the production mix — overwhelmingly reads against a slowly
/// changing forest — this cache turns a query into two or three loads, the
/// DSU-speed lookup De Man et al. 2024 argue practical systems need. Two
/// flat arrays sit beside the level-0 forest, each entry a packed
/// version:32 | value:32 word:
///
///   labels_[v] = pack(era, representative of v's component)
///   comp_[r]   = pack(era, |component whose representative is r|)
///
/// where `representative` is the Query API v2 canonical (smallest-id)
/// member. comp_[r]'s version is a per-component seqlock: even and nonzero
/// marks a stable *era* of r's component, odd marks it unstable, zero is
/// never-published. A label is valid iff its version equals comp_[rep]'s
/// current version and that version names an era. Invalidation is therefore
/// per component, not global: a structural update expires only the labels
/// of the one or two components it touches, which is what keeps the cache
/// hot at 99% reads while updates churn elsewhere — the crossover the
/// bench labels section measures.
///
/// Writer protocol (hooked from ett::Forest, level 0 only). Validation is
/// per component, through the level-0 roots' versions, which are odd
/// exactly while a structural bracket is open on them (ett.hpp, I3):
///  * invalidate(rep): CAS comp_[rep]'s version to the next odd value right
///    after the bracket bumps its roots odd and before any physical change
///    — called once per affected root (two for link, one for a cut);
///  * revalidate(rep, prior): cut_relink only — the removal found a
///    replacement, membership never changed, so the pre-bracket comp word
///    is restored by CAS (expected: the odd value our own invalidate
///    wrote). The CAS fails harmlessly if another bracket has since touched
///    the slot; on success every label of the old era is valid again — the
///    measured reason spanning churn on well-connected graphs leaves the
///    99%-read fast path intact.
///  * writer relabel: when a link or cut_commit closes its bracket and one
///    of the words its invalidate() calls returned was a live era, the
///    writer, still exclusive, reads each resulting component of at most
///    ChainRead::kCap vertices whole and publishes it like a reader's
///    chain. A component some reader warmed stays warm through churn; a
///    never-read one (prefill, cold regions) costs nothing extra.
/// Brackets on disjoint components never touch a shared word, so updates
/// elsewhere neither slow a publisher down nor stop it.
///
/// Reader side:
///  * hit: load labels_[u] = (v, r); the hit is valid iff v is an era and
///    comp_[r]'s version still equals v — linearized at the comp_ load
///    (era semantics: membership of r's component cannot change within an
///    era, because every change CASes the version odd before mutating).
///    connected() needs both endpoints valid *simultaneously*: after
///    validating each, it re-reads the first component word. Versions are
///    not monotone per slot (revalidate restores an older word), but a slot
///    can only return to era v via revalidate, which guarantees era v's
///    membership is unchanged — so an unchanged re-read means the first
///    era's membership spanned the second's validation instant, and
///    distinct canonical reps at one instant are distinct components.
///  * miss: the forest's own lock-free read (Listing 1 for connected, the
///    value read for size / representative) collects the vertex ids of the
///    queried chains on its re-check ascents and answers; publish() then
///    installs a chain iff its ids and root stat were read between two
///    reads of one even root version (no bracket open on that root in
///    between), loads comp_[rep], re-reads the root version, and CASes the
///    era in. A bracket that bumps the root after the re-read fails the
///    CAS via its own invalidate; one whose invalidate the comp_ load
///    already saw is caught by the re-read, because the odd bump precedes
///    the invalidate. Beyond the writer relabel of small components, repair
///    is lazy and amortized across readers: each miss relabels its own
///    O(log n) chain, so hot large components converge after a handful of
///    misses instead of every update paying O(component).
///
/// Versions are 32-bit and wrap; a stale hit would need 2^31 membership
/// changes of one component between a label store and its use, with the
/// version landing back on the exact era value — not reachable in practice.
/// The wrap skips 0 (the reserved never-hits value) on the invalidate side:
/// next_odd(0xFFFFFFFF) wraps to 1. On the publish side a slot sitting at
/// 0xFFFFFFFF computes next-even 0, which is not an era, so no era is
/// installed and that component stays cold (every query takes the tree
/// read) until its next structural update moves the version to 1 —
/// deliberately: jumping to 2 instead could revive ancient era-2 labels.
///
/// Lifetime: the facade owns the cache and declares it after its engine, so
/// the destructor detaches from the forest before the forest dies.
class LabelCache {
 public:
  explicit LabelCache(ett::Forest* forest);
  ~LabelCache();
  LabelCache(const LabelCache&) = delete;
  LabelCache& operator=(const LabelCache&) = delete;

  // --- reader API -----------------------------------------------------------

  /// Linearizable connectivity: label validation on a double hit,
  /// otherwise one Listing 1 read that answers and collects both chains
  /// for publishing.
  bool connected(Vertex u, Vertex v);

  /// Component size / canonical representative, same hit-else-read shape.
  uint64_t component_size(Vertex u);
  Vertex representative(Vertex u);

  /// One query op of any is_query kind (mirrors Hdt::exec_query) — the
  /// dispatch behind the facades' pure-read batch loops.
  uint64_t exec_query(const Op& op);

  /// Fill `out` (resized to num_vertices) with a consistent label array:
  /// a first pass validates every entry against its component word
  /// (repairing misses in place, so a quiescent call both succeeds and
  /// leaves the cache fully warm), a second pass re-reads each entry's
  /// component version — all still unchanged means every era was live at
  /// once between the passes (the try_connected argument). Returns false
  /// when concurrent membership churn defeats every attempt (or the cache
  /// is globally disabled) — callers fall back to per-vertex queries.
  bool snapshot_labels(std::vector<Vertex>& out);

  // --- writer hooks (called by ett::Forest on the level-0 structure) --------

  /// Expire comp_[rep] before mutating its component. Returns the prior
  /// word for a possible revalidate().
  uint64_t invalidate(Vertex rep) noexcept;
  /// cut_relink: membership unchanged — restore the pre-bracket word.
  void revalidate(Vertex rep, uint64_t prior) noexcept;
  /// True iff `prior` (a word invalidate() returned) was a live era: the
  /// component was published since its last change, so its writer
  /// relabels the result.
  static constexpr bool was_live(uint64_t prior) noexcept {
    return is_era(word_ver(prior));
  }
  /// Install a chain collected by a miss's read, or a whole small component
  /// read by its writer after the bracket closed (see the class comment);
  /// no-op unless the chain is publishable and the cache enabled.
  void publish(const ett::ChainRead& c) noexcept;

  // --- switches -------------------------------------------------------------

  /// Process-wide runtime kill switch (bench A/B sections and the mid-run
  /// force-disable test). Disabled: every query routes straight to the
  /// forest's existing read path and nothing is published. Re-enabling is
  /// safe at any time — the writer hooks run regardless of the switch, so
  /// membership changes during the disabled window expired their components
  /// exactly as usual and stale words cannot hit.
  static void set_globally_enabled(bool on) noexcept;
  static bool globally_enabled() noexcept;

  /// Construction-time knob: DC_LABEL_CACHE=0 makes the facades not build a
  /// cache at all (default: on). Read once per process.
  static bool env_enabled() noexcept;

 private:
  static constexpr uint64_t pack_word(uint32_t ver, uint32_t value) noexcept {
    return (static_cast<uint64_t>(ver) << 32) | value;
  }
  static constexpr uint32_t word_ver(uint64_t w) noexcept {
    return static_cast<uint32_t>(w >> 32);
  }
  static constexpr uint32_t word_value(uint64_t w) noexcept {
    return static_cast<uint32_t>(w);
  }
  /// Even and nonzero: a published, stable era.
  static constexpr bool is_era(uint32_t ver) noexcept {
    return ver != 0 && (ver & 1) == 0;
  }
  /// The next odd version after w's (odd stays odd: a bracket overlapping
  /// an unstable slot still has to move the version, or a publisher whose
  /// read predates the bracket could CAS stale data in).
  static constexpr uint32_t next_odd(uint32_t ver) noexcept {
    return (ver & 1) != 0 ? ver + 2 : ver + 1;
  }

  static constexpr int kSnapshotAttempts = 8;

  /// A miss on u's value: the forest's lock-free read, then publish.
  uint64_t read_and_publish(Vertex u);

  /// Hit-path label fetch: true iff labels_[i] carries era `*ver` for rep
  /// `*rep` and comp_[*rep] is still at that version.
  bool load_label(Vertex i, uint32_t* ver, uint32_t* rep) const noexcept {
    const uint64_t w = labels_[i].load(std::memory_order_seq_cst);
    const uint32_t v = word_ver(w);
    if (!is_era(v)) return false;
    const uint32_t r = word_value(w);
    if (word_ver(comp_[r].load(std::memory_order_seq_cst)) != v) return false;
    *ver = v;
    *rep = r;
    return true;
  }

  /// connected() hit attempt: 1 / 0, or -1 for a miss.
  int try_connected(Vertex u, Vertex v) const noexcept;

  ett::Forest* forest_;
  Vertex n_;
  std::unique_ptr<std::atomic<uint64_t>[]> labels_;
  std::unique_ptr<std::atomic<uint64_t>[]> comp_;
};

}  // namespace condyn
