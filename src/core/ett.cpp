#include "core/ett.hpp"

#include <algorithm>
#include <cassert>

#include "core/label_cache.hpp"
#include "core/stats.hpp"
#include "util/ebr.hpp"
#include "util/node_pool.hpp"
#include "util/random.hpp"

namespace condyn::ett {

namespace {

/// Tour nodes come from cacheline-strided pools (DESIGN.md §7.1): arcs and
/// upper-level vertex nodes from the one-line pool, level-0 vertex nodes
/// from the two-line one. link() and cut() recycle arc nodes through the
/// EBR grace period instead of paying the general-purpose allocator per
/// spanning update.
NodePool<Node, kCacheLine>& node_pool() {
  return NodePool<Node, kCacheLine>::instance();
}
NodePool<Level0Vertex, kCacheLine>& level0_pool() {
  return NodePool<Level0Vertex, kCacheLine>::instance();
}

/// Recycle a node no reader can still hold, through the pool of its type.
void destroy_node(Node* x) {
  if (x == nullptr) return;
  if (x->kind == Node::Kind::kLevel0Vertex)
    level0_pool().destroy(&x->as_level0());
  else
    node_pool().destroy(x);
}

constexpr uint32_t kVertexPriorityBit = uint32_t{1} << 31;

/// Vertex priorities live in the top half, arc priorities in the bottom half,
/// so the max-priority node of any tour — its treap root — is always a
/// vertex node. See the Forest class comment for why that matters.
uint32_t draw_vertex_priority() noexcept {
  return kVertexPriorityBit | static_cast<uint32_t>(thread_rng().next() >> 33);
}
uint32_t draw_arc_priority() noexcept {
  return static_cast<uint32_t>(thread_rng().next() >> 33);
}

uint32_t sz(const Node* x) noexcept { return x ? x->size : 0; }
// vstat is written by the structure's writer only; relaxed is enough on the
// writer side (readers carry consistency through the version protocol, see
// component_size_nonblocking).
uint64_t vs(const Node* x) noexcept {
  return x ? x->vstat.load(std::memory_order_relaxed) : Node::kEmptyVstat;
}
uint32_t vc(const Node* x) noexcept { return Node::vstat_count(vs(x)); }
Vertex vmn(const Node* x) noexcept { return Node::vstat_min(vs(x)); }
bool sla(const Node* x) noexcept { return x ? x->sub_level_arc : false; }
// sub_nonspanning / local_nonspanning stay seq_cst everywhere: the flag
// protocol is a store-load (Dekker) race — recalculate_flags stores false
// then re-reads the inputs, while a lock-free adder bumps the counter then
// reads the flag (Lemma C.1). Acquire/release cannot order a store before a
// later load of a different variable, so both sides need the seq_cst total
// order. See the audit table in DESIGN.md §7.3.
bool sns(const Node* x) noexcept {
  return x && x->sub_nonspanning.load(std::memory_order_seq_cst);
}
bool local_ns(const Node* x) noexcept {
  return x->local_nonspanning.load(std::memory_order_seq_cst) != 0;
}

// Level0Vertex::partner tagging: tour nodes are pool cells aligned far
// beyond 2, so bit 0 is free to say whether the partner is a committed cut's
// fresh piece root (set) or a link's other root (clear).
constexpr uintptr_t kCutPartner = 1;
uintptr_t link_partner(const Node* other) noexcept {
  return reinterpret_cast<uintptr_t>(other);
}
uintptr_t cut_partner(const Node* fresh) noexcept {
  return reinterpret_cast<uintptr_t>(fresh) | kCutPartner;
}
const Node* partner_node(uintptr_t p) noexcept {
  return reinterpret_cast<const Node*>(p & ~kCutPartner);
}

/// The vstat of the union of two disjoint components.
uint64_t combine_vstat(uint64_t a, uint64_t b) noexcept {
  return Node::pack_vstat(Node::vstat_count(a) + Node::vstat_count(b),
                          std::min(Node::vstat_min(a), Node::vstat_min(b)));
}

/// find_root_versioned that, given a ChainRead, records the vertex ids on
/// the way up and loads the root's vstat before its version. Nodes'
/// kind/tail are written once at construction, before the node is
/// published via a release store, so these plain reads are race-free under
/// the acquire chain + EBR pin.
RootSnapshot ascend(const Node* start, ChainRead* c) noexcept {
  if (c == nullptr) return find_root_versioned(start);
  std::size_t len = 0;
  const Node* cur = start;
  for (;;) {
    if (cur->is_vertex() && len < ChainRead::kCap) c->ids[len++] = cur->tail;
    const Node* p = cur->parent.load(std::memory_order_acquire);
    if (p == nullptr) break;
    cur = p;
  }
  c->len = len;
  c->root = cur;
  c->stat = cur->vstat.load(std::memory_order_acquire);
  return {cur, cur->version.load(std::memory_order_acquire)};
}

/// Writer: every vertex id of the tour under x (the caller bounds their
/// number by ChainRead::kCap).
void collect_ids(const Node* x, ChainRead* c) noexcept {
  if (x == nullptr) return;
  collect_ids(x->left, c);
  if (x->is_vertex()) c->ids[c->len++] = x->tail;
  collect_ids(x->right, c);
}

/// Writer relabel read (DESIGN.md §8.2): the whole component under `root`,
/// with the root's vstat and current version, if it has at most
/// ChainRead::kCap vertices; otherwise an unpublishable chain. The caller
/// is the component's exclusive writer with no bracket open on `root`, so
/// the read is one stable state under one even version — what publish()
/// asks of a reader's chain.
ChainRead read_component(const Node* root) noexcept {
  ChainRead c;
  const uint64_t stat = root->vstat.load(std::memory_order_relaxed);
  if (Node::vstat_count(stat) > ChainRead::kCap) return c;
  c.root = root;
  c.stat = stat;
  c.version = root->version.load(std::memory_order_relaxed);
  collect_ids(root, &c);
  return c;
}

/// Marks a collected chain as validated against version s.version.
void seal(ChainRead* c, const RootSnapshot& s) noexcept {
  if (c != nullptr) c->version = s.version;
}

/// The value of u's component while a bracket is open on s.root (odd
/// s.version, u's chain shown twice to end there). The root's live vstat
/// is transient inside a bracket, so the answer comes from the word frozen
/// at the bracket's start plus the partner:
///  * link — merged iff the lower root's parent is set (the linearization
///    store); then u's component is the union of both frozen words;
///  * cut — pending (no partner yet, or the fresh piece's chain still ends
///    here) is the whole pre-cut component; committed, u is in this root's
///    piece iff a fresh ascent still ends here, and that piece's vstat is
///    final since the commit.
/// A final re-read of the version proves the frozen word and partner
/// belong to this bracket (a later bracket stores them with release only
/// after this one's even bump). False: retry.
bool bracket_vstat(const Node* nu, const RootSnapshot& s,
                   uint64_t* out) noexcept {
  const Level0Vertex& r = s.root->as_level0();
  uint64_t w = r.frozen.load(std::memory_order_acquire);
  const uintptr_t p = r.partner.load(std::memory_order_acquire);
  const Node* q = partner_node(p);
  if (q != nullptr && (p & kCutPartner) != 0) {
    if (find_root_versioned(q).root != &r) {
      if (find_root_versioned(nu).root != &r) return false;
      w = r.vstat.load(std::memory_order_acquire);
    }
  } else if (q != nullptr) {
    const Node* lo = node_less(&r, q) ? &r : q;
    if (lo->parent.load(std::memory_order_acquire) != nullptr)
      w = combine_vstat(w,
                        q->as_level0().frozen.load(std::memory_order_acquire));
  }
  if (r.version.load(std::memory_order_acquire) != s.version) return false;
  *out = w;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lock-free reader operations
// ---------------------------------------------------------------------------

RootSnapshot find_root_versioned(const Node* start) noexcept {
  // parent/version run at acquire (not seq_cst — this is THE read hot path):
  // every writer bumps the involved root versions before its first physical
  // store (I3) and issues every physical store with release, so a reader
  // that acquires *any* store of an update observes that update's version
  // bumps on its subsequent version read. If the reader instead saw only
  // pre-update values, its snapshot is a consistent older state. That is
  // exactly the seqlock-style double-collect argument of Listing 1; no
  // cross-variable total order is consulted (DESIGN.md §7.3).
  const Node* cur = start;
  for (;;) {
    const Node* p = cur->parent.load(std::memory_order_acquire);
    if (p == nullptr) break;
    cur = p;
  }
  return {cur, cur->version.load(std::memory_order_acquire)};
}

Node* find_root(Node* start) noexcept {
  Node* cur = start;
  for (;;) {
    Node* p = cur->parent.load(std::memory_order_acquire);
    if (p == nullptr) return cur;
    cur = p;
  }
}

bool connected_nonblocking(const Node* nu, const Node* nv, ChainRead* cu,
                           ChainRead* cv) noexcept {
  auto guard = ebr::pin();
  auto& st = op_stats::local();
  ++st.reads;
  for (;;) {
    const RootSnapshot su = find_root_versioned(nu);
    const RootSnapshot sv = ascend(nv, cv);
    // Has the component of `u` changed? (u's chain is collected on this
    // re-check, so it lies between two reads of su's version.)
    if (ascend(nu, cu) != su) {
      ++st.read_retries;
      continue;
    }
    if (su.root == sv.root) {
      // One root, and its version repeated around v's ascent (versions only
      // grow), so v's chain also lies between su's two version reads.
      seal(cu, su);
      seal(cv, su);
      return true;
    }
    // Likely different components; re-check that the two roots were
    // snapshotted atomically. The second re-check of `u` is required —
    // Appendix A constructs a non-linearizable history without it.
    if (ascend(nv, cv) != sv) {
      ++st.read_retries;
      continue;
    }
    if (find_root_versioned(nu) != su) {
      ++st.read_retries;
      continue;
    }
    seal(cu, su);
    seal(cv, sv);
    return false;
  }
}

void set_flags_up(Node* x) noexcept {
  // Listing 6's set_flags_up: stop as soon as a flag is already raised —
  // the raiser that performed that transition continues the walk. The flag
  // accesses stay seq_cst (Dekker pair with recalculate_flags, see sns());
  // the parent chase itself only needs acquire like any reader ascent.
  Node* cur = x;
  while (cur != nullptr) {
    if (cur->sub_nonspanning.load(std::memory_order_seq_cst)) return;
    cur->sub_nonspanning.store(true, std::memory_order_seq_cst);
    cur = cur->parent.load(std::memory_order_acquire);
  }
}

// ---------------------------------------------------------------------------
// Writer-side treap machinery
// ---------------------------------------------------------------------------

void Forest::set_parent(Node* child, Node* p) noexcept {
  assert(p == nullptr || node_less(child, p));  // invariant I1
  // Release: a reader that acquires this store must also observe the
  // version bumps sequenced before it in the writer (I3) — the pairing
  // find_root_versioned's acquire loads rely on. No reader decision is
  // based on the relative order of two different writers' independent
  // stores, so the stronger seq_cst total order is not needed here.
  if (child->parent.load(std::memory_order_relaxed) != p)
    child->parent.store(p, std::memory_order_release);
}

void Forest::pull(Node* x) noexcept {
  x->size = 1 + sz(x->left) + sz(x->right);
  // One packed load per child, one packed store: the count sum and the min
  // fold over the same two words. The store is a release, paired with the
  // acquire load in root_vstat_nonblocking: release alone does NOT stop
  // this (later) store from overtaking the writer's earlier version bump
  // on weakly-ordered hardware — instead, a reader whose acquire load
  // returns a transient mid-restructure word thereby synchronizes with it
  // and must observe the bump on its second version collect, so the
  // double-collect retries (same pairing as set_parent; x86-TSO gives this
  // for free either way).
  const uint64_t l = vs(x->left);
  const uint64_t r = vs(x->right);
  const uint32_t count =
      (x->is_vertex() ? 1 : 0) + Node::vstat_count(l) + Node::vstat_count(r);
  Vertex mn = x->is_vertex() ? x->tail : Node::kNoVertexSentinel;
  if (Node::vstat_min(l) < mn) mn = Node::vstat_min(l);
  if (Node::vstat_min(r) < mn) mn = Node::vstat_min(r);
  x->vstat.store(Node::pack_vstat(count, mn), std::memory_order_release);
  x->sub_level_arc = x->arc_at_level || sla(x->left) || sla(x->right);
  recalculate_flags(x);
}

void Forest::recalculate_flags(Node* x) noexcept {
  const bool ns = local_ns(x) || sns(x->left) || sns(x->right);
  x->sub_nonspanning.store(ns, std::memory_order_seq_cst);
  if (!ns) {
    // Lemma C.1: a lock-free adder may have raised the flag between our read
    // and our store; re-check after writing false and repair.
    if (local_ns(x) || sns(x->left) || sns(x->right))
      x->sub_nonspanning.store(true, std::memory_order_seq_cst);
  }
}

uint32_t Forest::rank_of(Node* x) noexcept {
  uint32_t r = sz(x->left);
  Node* cur = x;
  for (;;) {
    Node* p = cur->parent.load(std::memory_order_relaxed);
    if (p == nullptr || (p->left != cur && p->right != cur)) break;  // root
    if (p->right == cur) r += sz(p->left) + 1;
    cur = p;
  }
  return r;
}

Node* Forest::merge(Node* a, Node* b) noexcept {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (node_less(b, a)) {
    Node* r = merge(a->right, b);
    a->right = r;
    set_parent(r, a);
    pull(a);
    return a;
  }
  Node* l = merge(a, b->left);
  b->left = l;
  set_parent(l, b);
  pull(b);
  return b;
}

void Forest::split_walk(Node* prev, Node*& l, Node*& r) noexcept {
  // Ascend from `prev`, distributing path nodes onto the L / R sides.
  // The walk stops at the tree's root, detected as "prev is not a child of
  // its (possibly stale) parent pointer" — piece roots produced by earlier
  // splits keep stale parents by design (invariant I2).
  Node* p = prev->parent.load(std::memory_order_relaxed);
  bool prev_left = p != nullptr && p->left == prev;
  while (p != nullptr && (p->left == prev || p->right == prev)) {
    Node* np = p->parent.load(std::memory_order_relaxed);
    const bool p_left = np != nullptr && np->left == p;
    if (prev_left) {
      // p and its right subtree follow prev's subtree in tour order.
      p->left = r;
      if (r != nullptr) set_parent(r, p);
      pull(p);
      r = p;
    } else {
      p->right = l;
      if (l != nullptr) set_parent(l, p);
      pull(p);
      l = p;
    }
    prev = p;
    p = np;
    prev_left = p_left;
  }
}

std::pair<Node*, Node*> Forest::split_before(Node* x) noexcept {
  Node* l = x->left;  // keeps its stale parent pointer (invariant I2)
  x->left = nullptr;
  pull(x);
  Node* r = x;
  split_walk(x, l, r);
  return {l, r};
}

std::pair<Node*, Node*> Forest::split_after(Node* x) noexcept {
  Node* r = x->right;  // keeps its stale parent pointer
  x->right = nullptr;
  pull(x);
  Node* l = x;
  split_walk(x, l, r);
  return {l, r};
}

Node* Forest::reroot(Node* u_node) noexcept {
  // Tours are cyclic: rotating [A | u..] to [u.. | A] rebases the tour at u
  // without changing the node set — hence without changing the (max
  // priority) root, so no version/parent protocol is involved here.
  auto [a, b] = split_before(u_node);
  return merge(b, a);
}

// ---------------------------------------------------------------------------
// Forest lifecycle
// ---------------------------------------------------------------------------

Forest::Forest(Vertex n, int level)
    : n_(n),
      level_(level),
      nodes_(std::make_unique<std::atomic<Node*>[]>(n)),
      // Level 0 holds up to n-1 arc pairs; level i's trees hold at most
      // n / 2^i vertices each and far fewer pairs reach it in practice.
      arcs_(n >> level) {
  for (Vertex i = 0; i < n; ++i)
    nodes_[i].store(nullptr, std::memory_order_relaxed);
}

Forest::~Forest() {
  // Teardown is quiescent: recycle every node straight into the pool.
  arcs_.for_each([](const Edge&, ArcPair& p) {
    node_pool().destroy(p.uv);
    node_pool().destroy(p.vu);
  });
  for (Vertex i = 0; i < n_; ++i)
    destroy_node(nodes_[i].load(std::memory_order_relaxed));
}

Node* Forest::new_vertex_node(Vertex v) {
  const bool level0 = level_ == 0;
  Node* x = level0 ? level0_pool().create() : node_pool().create();
  x->kind = level0 ? Node::Kind::kLevel0Vertex : Node::Kind::kVertex;
  x->priority = draw_vertex_priority();
  x->tail = x->head = v;
  x->vstat.store(Node::pack_vstat(1, v), std::memory_order_relaxed);
  return x;
}

Node* Forest::new_arc_node(Vertex t, Vertex h) {
  Node* x = node_pool().create();  // kind stays kArc
  x->priority = draw_arc_priority();
  x->tail = t;
  x->head = h;
  return x;
}

Node* Forest::vertex_node(Vertex v) {
  assert(v < n_);
  Node* cur = nodes_[v].load(std::memory_order_acquire);
  if (cur != nullptr) return cur;
  Node* fresh = new_vertex_node(v);
  if (nodes_[v].compare_exchange_strong(cur, fresh,
                                        std::memory_order_acq_rel)) {
    return fresh;
  }
  // Lost the creation race: nobody else can hold `fresh`, so it goes back
  // to the pool immediately (the seed heap-deleted here, bypassing reuse).
  destroy_node(fresh);
  return cur;
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

bool Forest::has_edge(Vertex u, Vertex v) const {
  return arcs_.find(Edge(u, v)) != nullptr;
}

bool Forest::connected_writer(Vertex u, Vertex v) {
  return find_root(vertex_node(u)) == find_root(vertex_node(v));
}

bool Forest::connected(Vertex u, Vertex v, ChainRead* cu, ChainRead* cv) {
  return connected_nonblocking(vertex_node(u), vertex_node(v), cu, cv);
}

uint32_t Forest::component_vertices(Vertex u) {
  return vc(find_root(vertex_node(u)));
}

Vertex Forest::representative_writer(Vertex u) {
  return vmn(find_root(vertex_node(u)));
}

uint64_t Forest::root_vstat_nonblocking(Vertex u, ChainRead* chain) {
  assert(level_ == 0 && "bracket state lives on level-0 vertex nodes only");
  auto guard = ebr::pin();
  const Node* nu = vertex_node(u);
  auto& st = op_stats::local();
  ++st.reads;
  for (;;) {
    // Seqlock double-collect (Listing 1's argument, applied to the root
    // augmentation), with the stat — and the chain, if collected — read
    // between the two version loads. The acquire load of vstat pairs with
    // pull()'s release store (see pull for the weak-ordering argument).
    const RootSnapshot s = find_root_versioned(nu);
    uint64_t stat =
        chain ? 0 : s.root->vstat.load(std::memory_order_acquire);
    if (ascend(nu, chain) == s) {
      if (chain != nullptr) stat = chain->stat;
      // Even: no bracket was open on the root, so the word is stable.
      if ((s.version & 1) == 0) {
        seal(chain, s);
        return stat;
      }
      // Odd: the bracket's frozen word, not the transient vstat (a pending
      // cut or a link mid-restructure rewrites the root's vstat with
      // piece-only values under one unchanged version).
      if (bracket_vstat(nu, s, &stat)) return stat;
    }
    ++st.read_retries;
  }
}

uint64_t Forest::component_size_nonblocking(Vertex u) {
  return Node::vstat_count(root_vstat_nonblocking(u));
}

Vertex Forest::representative_nonblocking(Vertex u) {
  return Node::vstat_min(root_vstat_nonblocking(u));
}

// Brackets are exclusive per root (the engines hold the component lock), so
// the bumps are plain load/store pairs, not RMWs.
void Forest::open_bracket(Node* root, uintptr_t partner) noexcept {
  // The frozen word and partner go first, so a reader that acquires the odd
  // version sees them. Release on both: a reader that loads a *later*
  // bracket's values synchronizes with them and so sees this bracket's even
  // bump on its version re-read (bracket_vstat). Value reads run on level 0
  // only, so upper levels keep just the version protocol.
  if (level_ == 0) {
    Level0Vertex& r = root->as_level0();
    r.frozen.store(r.vstat.load(std::memory_order_relaxed),
                   std::memory_order_release);
    r.partner.store(partner, std::memory_order_release);
  }
  const uint64_t v = root->version.load(std::memory_order_relaxed);
  assert((v & 1) == 0 && "one bracket per root at a time");
  root->version.store(v + 1, std::memory_order_release);
}

void Forest::close_bracket(Node* root) noexcept {
  const uint64_t v = root->version.load(std::memory_order_relaxed);
  assert((v & 1) == 1);
  root->version.store(v + 1, std::memory_order_release);
}

void Forest::link(Vertex u, Vertex v) {
  Node* nu = vertex_node(u);
  Node* nv = vertex_node(v);
  Node* ru = find_root(nu);
  Node* rv = find_root(nv);
  assert(ru != rv && "link precondition: different components");
  assert(!has_edge(u, v));

  // The eventual root (always a vertex node, always the max-priority node
  // of the union) is `hi`; `lo` gets linked under it.
  Node* hi = node_less(ru, rv) ? rv : ru;
  Node* lo = hi == ru ? rv : ru;

  // I3: both roots go odd before any physical change (release: the bumps
  // only need to be visible to readers that acquire a later physical store
  // of this update, see set_parent / DESIGN.md §7.3). Then the label-cache
  // words of both components expire — after the bump, so a publisher that
  // loads an expired word also sees the odd version and backs off.
  open_bracket(hi, link_partner(lo));
  open_bracket(lo, link_partner(hi));
  bool relabel = false;
  if (cache_ != nullptr) {
    const uint64_t wh = cache_->invalidate(Node::vstat_min(
        hi->as_level0().frozen.load(std::memory_order_relaxed)));
    const uint64_t wl = cache_->invalidate(Node::vstat_min(
        lo->as_level0().frozen.load(std::memory_order_relaxed)));
    relabel = LabelCache::was_live(wh) || LabelCache::was_live(wl);
  }

  // Logical merge (Fig. 2): one store makes the two trees one component for
  // concurrent readers.
  set_parent(lo, hi);

  // Physical restructuring; all stores keep chains rooted at `hi`.
  Node* tu = reroot(nu);
  Node* tv = reroot(nv);

  auto* pair = arcs_.get_or_create(Edge(u, v));
  assert(pair->uv == nullptr && pair->vu == nullptr &&
         "link precondition: edge not already in the forest");
  Node* a1 = new_arc_node(u, v);
  Node* a2 = new_arc_node(v, u);
  if (u <= v) {
    pair->uv = a1;
    pair->vu = a2;
  } else {
    pair->uv = a2;
    pair->vu = a1;
  }

  Node* t = merge(merge(merge(tu, a1), tv), a2);
  (void)t;
  assert(t == hi);
  assert(hi->parent.load(std::memory_order_relaxed) == nullptr);
  // Both even again: hi's vstat is final, and lo's bump ends the bracket
  // for readers that reached lo as a root before the merge store.
  close_bracket(hi);
  close_bracket(lo);
  // Writer relabel (§8.2): one side was warm, and we still hold the union
  // exclusively, so publish it whole if it is small.
  if (relabel) cache_->publish(read_component(hi));
}

Node* Forest::find_piece_root(Node* x) noexcept {
  Node* cur = x;
  for (;;) {
    Node* p = cur->parent.load(std::memory_order_relaxed);
    if (p == nullptr || (p->left != cur && p->right != cur)) return cur;
    cur = p;
  }
}

Forest::CutHandle Forest::cut_prepare(Vertex u, Vertex v) {
  ArcPair* pair = arcs_.find(Edge(u, v));
  assert(pair != nullptr && "cut precondition: edge in forest");
  Node* a = u <= v ? pair->uv : pair->vu;  // arc u->v
  Node* b = u <= v ? pair->vu : pair->uv;  // arc v->u

  // I3: the bracket spans the whole two-phase cut and closes in cut_commit
  // or cut_relink. The root's vstat transiently holds piece-only values
  // from here on, so readers answer from the frozen word; no partner until
  // the commit names the fresh root. The component's label-cache word
  // expires after the odd bump (see link()); its prior word rides in the
  // handle so cut_relink can restore it — a relink changes nothing.
  Node* rt = find_root(a);
  open_bracket(rt, 0);
  Vertex cache_rep = 0;
  uint64_t cache_word = 0;
  if (cache_ != nullptr) {
    cache_rep = Node::vstat_min(
        rt->as_level0().frozen.load(std::memory_order_relaxed));
    cache_word = cache_->invalidate(cache_rep);
  }

  if (rank_of(a) > rank_of(b)) std::swap(a, b);

  // Tour layout: A | a | B | b | C. All splits keep stale parents, so every
  // chain still terminates at rt until cut_commit's unlink (or forever, if
  // cut_relink splices the pieces back together).
  auto [piece_a, r1] = split_before(a);
  (void)r1;
  auto [a_only, r2] = split_after(a);
  assert(a_only == a && r2 != nullptr);
  auto [piece_b, r3] = split_before(b);
  assert(r3 != nullptr);
  auto [b_only, piece_c] = split_after(b);
  assert(b_only == b);
  (void)a_only;
  (void)b_only;
  (void)r2;
  (void)r3;

  Node* ac = merge(piece_a, piece_c);
  assert(ac != nullptr && piece_b != nullptr);
  assert((ac == rt) != (piece_b == rt));

  CutHandle h;
  h.old_root = rt;
  h.arc1 = a;
  h.arc2 = b;
  h.u = u;
  h.v = v;
  Node* ru = find_piece_root(vertex_node(u));
  assert(ru == ac || ru == piece_b);
  h.root_u = ru;
  h.root_v = (ru == ac) ? piece_b : ac;
  h.cache_rep = cache_rep;
  h.cache_word = cache_word;
  arcs_.erase(Edge(u, v));  // writer-only table; readers never consult it
  return h;
}

void Forest::cut_commit(CutHandle& h) {
  // The piece that is not the old root becomes a root now. Name it as the
  // old root's partner first (readers inside the bracket learn of the
  // commit through it), give it the next even version — it is born with
  // its bracket closed and its vstat final, and its version never repeats
  // one a reader saw while it was last a root (I3) — then the single null
  // store is the linearization point (Fig. 3). Release on all three: a
  // reader that acquires the null store sees the rest.
  Node* fresh_root = (h.root_u == h.old_root) ? h.root_v : h.root_u;
  assert(fresh_root != h.old_root);
  if (level_ == 0) {
    h.old_root->as_level0().partner.store(cut_partner(fresh_root),
                                          std::memory_order_release);
  }
  const uint64_t fv = fresh_root->version.load(std::memory_order_relaxed);
  fresh_root->version.store((fv | 1) + 1, std::memory_order_release);
  // Writer relabel (§8.2) of a warm component: the fresh piece is read
  // here, under its birth version, because the unlink below is also what
  // lets another writer lock it (ComponentGuard) and restructure it.
  const bool relabel =
      cache_ != nullptr && LabelCache::was_live(h.cache_word);
  ChainRead fresh;
  if (relabel) fresh = read_component(fresh_root);
  fresh_root->parent.store(nullptr, std::memory_order_release);

  // I4: readers may still be traversing the removed arcs; their stale parent
  // pointers keep chains valid, and EBR delays the recycle into the pool.
  node_pool().retire(h.arc1);
  node_pool().retire(h.arc2);
  // The split expires only the old component's era (invalidated at
  // prepare); the piece that gained a new representative cannot alias a
  // stale era — its comp_ slot was expired when that representative's own
  // component last changed, and only a validated republish can revive it.
  close_bracket(h.old_root);
  if (relabel) {
    // The fresh piece is published only now, with its root's version
    // re-read by publish(): a writer that locked it since then has bumped
    // that version and the publish backs off. The old root's piece is
    // still ours.
    cache_->publish(fresh);
    cache_->publish(read_component(h.old_root));
  }
}

void Forest::cut_relink(CutHandle& h, Vertex x, Vertex y) {
  Node* nx = vertex_node(x);
  Node* ny = vertex_node(y);
  [[maybe_unused]] Node* rx = find_piece_root(nx);
  [[maybe_unused]] Node* ry = find_piece_root(ny);
  assert(rx != ry);
  assert((rx == h.root_u || rx == h.root_v) &&
         (ry == h.root_u || ry == h.root_v));

  // No logical-merge protocol here: for readers this entire removal never
  // changed anything — every intermediate store keeps chains rooted at
  // old_root, and the final structure is again one tree rooted at old_root
  // (it remains the maximum-priority node of the unchanged vertex set).
  // Readers keep answering from the frozen word until the bracket closes.
  Node* tx = reroot(nx);
  Node* ty = reroot(ny);

  auto* pair = arcs_.get_or_create(Edge(x, y));
  assert(pair->uv == nullptr && pair->vu == nullptr &&
         "relink precondition: replacement not already in the forest");
  Node* a1 = new_arc_node(x, y);
  Node* a2 = new_arc_node(y, x);
  if (x <= y) {
    pair->uv = a1;
    pair->vu = a2;
  } else {
    pair->uv = a2;
    pair->vu = a1;
  }

  [[maybe_unused]] Node* t = merge(merge(merge(tx, a1), ty), a2);
  assert(t == h.old_root);
  assert(h.old_root->parent.load(std::memory_order_relaxed) == nullptr);

  node_pool().retire(h.arc1);
  node_pool().retire(h.arc2);
  // Membership unchanged: restore the pre-bracket component word, making
  // every label of the old era valid again — the warm-under-churn property
  // the labels section measures.
  if (cache_ != nullptr) cache_->revalidate(h.cache_rep, h.cache_word);
  close_bracket(h.old_root);
}

void Forest::cut(Vertex u, Vertex v) {
  CutHandle h = cut_prepare(u, v);
  cut_commit(h);
}

void Forest::set_arc_at_level(Vertex u, Vertex v, bool value) {
  ArcPair* pair = arcs_.find(Edge(u, v));
  assert(pair != nullptr);
  for (Node* arc : {pair->uv, pair->vu}) {
    arc->arc_at_level = value;
    for (Node* x = arc; x != nullptr;) {
      pull(x);
      Node* p = x->parent.load(std::memory_order_relaxed);
      x = (p != nullptr && (p->left == x || p->right == x)) ? p : nullptr;
    }
  }
}

void Forest::nonspanning_inc(Vertex v) {
  Node* x = vertex_node(v);
  x->local_nonspanning.fetch_add(1, std::memory_order_seq_cst);
  set_flags_up(x);
}

void Forest::nonspanning_dec(Vertex v) {
  Node* x = vertex_node(v);
  [[maybe_unused]] uint32_t prev =
      x->local_nonspanning.fetch_sub(1, std::memory_order_seq_cst);
  assert(prev > 0);
  // Flags are deliberately left possibly-true (Listing 6's remove_info);
  // only replacement searches under locks lower them, with the recheck.
}

// ---------------------------------------------------------------------------
// Introspection (tests)
// ---------------------------------------------------------------------------

namespace {

void collect_tour(const Node* x, std::vector<const Node*>& out) {
  if (x == nullptr) return;
  collect_tour(x->left, out);
  out.push_back(x);
  collect_tour(x->right, out);
}

std::size_t validate_rec(const Node* x) {
  if (x == nullptr) return 0;
  std::size_t cnt = 1;
  for (const Node* c : {x->left, x->right}) {
    if (c == nullptr) continue;
    assert(node_less(c, x) && "heap order violated");
    assert(c->parent.load(std::memory_order_relaxed) == x &&
           "child parent pointer mismatch");
    cnt += validate_rec(c);
  }
  assert(x->size == 1 + sz(x->left) + sz(x->right));
  assert(vc(x) == (x->is_vertex() ? 1u : 0u) + vc(x->left) + vc(x->right));
  assert(vmn(x) == std::min({x->is_vertex() ? x->tail : Node::kNoVertexSentinel,
                             vmn(x->left), vmn(x->right)}));
  assert(x->sub_level_arc ==
         (x->arc_at_level || sla(x->left) || sla(x->right)));
  // sub_nonspanning may be conservatively true, but never falsely false.
  if (local_ns(x) || sns(x->left) || sns(x->right))
    assert(x->sub_nonspanning.load(std::memory_order_relaxed));
  return cnt;
}

}  // namespace

std::vector<const Node*> Forest::tour(Vertex u) {
  std::vector<const Node*> out;
  collect_tour(find_root(vertex_node(u)), out);
  return out;
}

std::size_t Forest::validate(Vertex u) {
  Node* r = find_root(vertex_node(u));
  assert(r->parent.load(std::memory_order_relaxed) == nullptr);
  assert(r->is_vertex() && "root must be a vertex node");
  return validate_rec(r);
}

}  // namespace condyn::ett
