#include "core/label_cache.hpp"

#include <cstdlib>
#include <string_view>

#include "core/ett.hpp"
#include "core/stats.hpp"

namespace condyn {

namespace {

std::atomic<bool> g_label_cache_enabled{true};

}  // namespace

void LabelCache::set_globally_enabled(bool on) noexcept {
  g_label_cache_enabled.store(on, std::memory_order_release);
}

bool LabelCache::globally_enabled() noexcept {
  return g_label_cache_enabled.load(std::memory_order_acquire);
}

bool LabelCache::env_enabled() noexcept {
  static const bool on = [] {
    const char* e = std::getenv("DC_LABEL_CACHE");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return on;
}

LabelCache::LabelCache(ett::Forest* forest)
    : forest_(forest),
      n_(forest->num_vertices()),
      labels_(std::make_unique<std::atomic<uint64_t>[]>(forest->num_vertices())),
      comp_(std::make_unique<std::atomic<uint64_t>[]>(forest->num_vertices())) {
  // Version 0 is the reserved never-hits value, so zeroed is "empty".
  for (Vertex v = 0; v < n_; ++v) {
    labels_[v].store(0, std::memory_order_relaxed);
    comp_[v].store(0, std::memory_order_relaxed);
  }
  forest_->set_label_cache(this);
}

LabelCache::~LabelCache() { forest_->set_label_cache(nullptr); }

uint64_t LabelCache::invalidate(Vertex rep) noexcept {
  // Move comp_[rep]'s version to the next odd value before the component is
  // mutated. This is the whole invalidation story: labels of era v die the
  // instant the slot leaves v, and a publisher whose expected CAS value
  // predates this bump fails. Runs under the engine's structural
  // exclusivity for this component, but the CAS loop also tolerates a
  // concurrent bracket on the same slot.
  uint64_t w = comp_[rep].load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t nw = pack_word(next_odd(word_ver(w)), word_value(w));
    if (comp_[rep].compare_exchange_weak(w, nw, std::memory_order_seq_cst))
      return w;
  }
}

void LabelCache::revalidate(Vertex rep, uint64_t prior) noexcept {
  // cut_relink: the removal spliced the component back together —
  // membership, count and representative are exactly what they were before
  // cut_prepare, so the pre-bracket word becomes valid again. CAS from the
  // odd value our own invalidate() installed: if any other bracket touched
  // the slot meanwhile, its version moved on and the restore is dropped
  // (the slot stays unstable until a reader republishes — correct, just
  // colder). No publisher can have interfered: a publish needs an even
  // root version, and our bracket still holds the root odd.
  uint64_t expected = pack_word(next_odd(word_ver(prior)), word_value(prior));
  comp_[rep].compare_exchange_strong(expected, prior,
                                     std::memory_order_seq_cst);
}

void LabelCache::publish(const ett::ChainRead& c) noexcept {
  if (!c.publishable() || !globally_enabled()) return;
  // The chain and the stat were read between two reads of one even root
  // version (or by the component's writer, exclusive, after its bracket
  // closed): no bracket was open on the root, so they describe a stable
  // state of its component. The comp_ word — the CAS expected value — is
  // loaded BEFORE re-reading the root version: a bracket whose invalidate
  // this load observes bumped the root odd first, so the re-read fails
  // (acquire on the load, release on the bump); a bracket that bumps after
  // the re-read fails the CAS below via its own invalidate. (Loading it
  // after the re-read would let a bracket land in between and have its odd
  // invalidation word adopted as expected — the CAS would then install a
  // fresh era carrying pre-bracket membership while the bracket is still
  // open, and nothing would ever expire it.)
  const Vertex rep = ett::Node::vstat_min(c.stat);
  const uint32_t count = ett::Node::vstat_count(c.stat);
  uint64_t wc = comp_[rep].load(std::memory_order_seq_cst);
  if (c.root->version.load(std::memory_order_acquire) != c.version) return;
  uint32_t era = 0;
  if (is_era(word_ver(wc))) {
    // An era is already live for this component; our stable read must
    // agree with it (membership cannot have changed since the era began or
    // the version would have moved). Join it — installing a fresh era here
    // would needlessly kill every label already published under it.
    if (word_value(wc) == count) era = word_ver(wc);
  } else {
    const uint32_t nv = (word_ver(wc) | 1) + 1;  // next even above
    if (is_era(nv) &&
        comp_[rep].compare_exchange_strong(wc, pack_word(nv, count),
                                           std::memory_order_seq_cst)) {
      era = nv;
    }
  }
  if (era == 0) return;
  // Label stores strictly after the era exists in comp_: a hit's acquire
  // load of a label synchronizes with these releases, so the era it
  // validates against is the one the label was published under.
  for (std::size_t i = 0; i < c.len; ++i)
    labels_[c.ids[i]].store(pack_word(era, rep), std::memory_order_release);
  ++op_stats::local().label_publishes;
}

uint64_t LabelCache::read_and_publish(Vertex u) {
  ett::ChainRead c;
  const uint64_t stat = forest_->root_vstat_nonblocking(u, &c);
  publish(c);
  return stat;
}

int LabelCache::try_connected(Vertex u, Vertex v) const noexcept {
  uint32_t va, ra, vb, rb;
  if (!load_label(u, &va, &ra) || !load_label(v, &vb, &rb)) return -1;
  if (ra == rb) {
    // Same slot: equal versions means one era, hence simultaneous
    // membership (load_label already validated va against comp_[ra]).
    return va == vb ? 1 : -1;
  }
  // Distinct reps: each label was valid at its own comp_ load; re-reading
  // the first slot brackets the second's validation. Per-slot versions are
  // NOT monotone — revalidate() restores an older word (v -> v+1 -> v) — so
  // an unchanged re-read is not proof of no intervening writes. It is still
  // proof of membership: the only way the slot returns to era va is via
  // revalidate, which by contract means era va's membership never changed.
  // Hence u's membership under era va held continuously across era vb's
  // validation instant — both memberships held at once, and distinct
  // canonical (min-id) representatives at one instant are distinct
  // components.
  if (word_ver(comp_[ra].load(std::memory_order_seq_cst)) != va) return -1;
  return 0;
}

bool LabelCache::connected(Vertex u, Vertex v) {
  if (globally_enabled()) {
    auto& st = op_stats::local();
    int r = try_connected(u, v);
    if (r >= 0) {
      ++st.label_hits;
      ++st.reads;
      return r != 0;
    }
    ++st.label_misses;
    // One Listing 1 read answers; its re-check ascents collect both chains.
    ett::ChainRead cu, cv;
    const bool c = forest_->connected(u, v, &cu, &cv);
    publish(cu);
    publish(cv);
    return c;
  }
  return forest_->connected(u, v);
}

uint64_t LabelCache::component_size(Vertex u) {
  if (globally_enabled()) {
    auto& st = op_stats::local();
    const uint64_t wl = labels_[u].load(std::memory_order_seq_cst);
    if (is_era(word_ver(wl))) {
      const uint64_t wc =
          comp_[word_value(wl)].load(std::memory_order_seq_cst);
      if (word_ver(wc) == word_ver(wl)) {
        // Era still live at the comp_ load — the linearization point; the
        // count was published from a stable read of that era.
        ++st.label_hits;
        ++st.reads;
        return word_value(wc);
      }
    }
    ++st.label_misses;
    return ett::Node::vstat_count(read_and_publish(u));
  }
  return forest_->component_size_nonblocking(u);
}

Vertex LabelCache::representative(Vertex u) {
  if (globally_enabled()) {
    auto& st = op_stats::local();
    uint32_t ver, rep;
    if (load_label(u, &ver, &rep)) {
      ++st.label_hits;
      ++st.reads;
      return rep;
    }
    ++st.label_misses;
    return ett::Node::vstat_min(read_and_publish(u));
  }
  return forest_->representative_nonblocking(u);
}

uint64_t LabelCache::exec_query(const Op& op) {
  switch (op.kind) {
    case OpKind::kConnected: return connected(op.u, op.v) ? 1 : 0;
    case OpKind::kComponentSize: return component_size(op.u);
    case OpKind::kRepresentative: return representative(op.u);
    default: return 0;  // updates never reach the query paths
  }
}

bool LabelCache::snapshot_labels(std::vector<Vertex>& out) {
  if (!globally_enabled()) return false;
  out.resize(n_);
  std::vector<uint32_t> eras(n_);
  for (int attempt = 0; attempt < kSnapshotAttempts; ++attempt) {
    bool ok = true;
    for (Vertex v = 0; v < n_ && ok; ++v) {
      uint32_t ver = 0, rep = 0;
      if (!load_label(v, &ver, &rep)) {
        read_and_publish(v);
        ok = load_label(v, &ver, &rep);
      }
      out[v] = rep;
      eras[v] = ver;
    }
    // Each label was valid at its own first-pass comp_ load. If every
    // component word still carries its era on this second pass, each era's
    // membership held from its validation to its re-read (a slot returns to
    // an era only via revalidate, which leaves membership unchanged), so all
    // of them held at once between the two passes: a consistent snapshot,
    // linearized there.
    for (Vertex v = 0; v < n_ && ok; ++v)
      ok = word_ver(comp_[out[v]].load(std::memory_order_seq_cst)) == eras[v];
    if (ok) return true;
  }
  return false;
}

}  // namespace condyn
