#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/sharded_map.hpp"
#include "graph/graph.hpp"
#include "util/cacheline.hpp"
#include "util/rw_lock.hpp"

namespace condyn {
class LabelCache;
}

namespace condyn::ett {

struct Level0Vertex;

/// Single-writer, multi-reader Euler Tour Tree (paper §3).
///
/// The tour of each spanning tree is stored in a Cartesian tree (treap) with
/// implicit keys. The *writer* (the thread holding the component's lock)
/// restructures using the plain `left/right/size` fields; *readers* traverse
/// only the atomic `parent` pointers and the root `version` counters, giving
/// a non-blocking, linearizable `connected` (Listing 1 of the paper).
///
/// Reader-safety invariants maintained by every writer-side store (see
/// DESIGN.md §4.1):
///  I1 (acyclicity)   every parent pointer targets a strictly higher
///                    (priority, address) node, so chains terminate;
///  I2 (single sink)  parent pointers are never set to null except at the
///                    single linearization store of a split, and the
///                    linearization store of a merge is the single store
///                    that connects the two sink trees;
///  I3 (versions)     a root's version is odd exactly while a structural
///                    bracket (link; cut_prepare through cut_commit or
///                    cut_relink) is open on it: the writer bumps the
///                    involved roots odd before any physical store and even
///                    once the bracket's stores are done, and a root born at
///                    a commit gets the next even value before it unlinks;
///  I4 (reclamation)  removed arc nodes keep their stale parent pointers and
///                    are retired through EBR, never freed in place.
///
/// One tour node is one cache line (DESIGN.md §7.1, §7.3): every field a
/// lock-free reader ascends through or a treap step touches. Arcs and the
/// vertex nodes of levels >= 1 are exactly this; level-0 vertex nodes, the
/// roots that component locks, removal announcements and value reads use,
/// add a second line of root-only state (Level0Vertex).
struct alignas(kCacheLine) Node {
  // --- fields shared with lock-free readers --------------------------------
  // parent/version run under acquire/release (writers bump versions before
  // any physical store, every physical store is a release — the seqlock
  // double-collect of Listing 1 needs no cross-variable total order);
  // sub_nonspanning/local_nonspanning stay seq_cst because their protocol
  // is a store-load race. Full audit table: DESIGN.md §7.3.
  std::atomic<Node*> parent{nullptr};
  std::atomic<uint64_t> version{0};
  /// Packed subtree statistics: high 32 bits = vertex-node count (component
  /// |V| at the root), low 32 bits = smallest vertex id in the subtree (the
  /// canonical representative at the root; kNoVertexSentinel for arc-only
  /// subtrees). One word so pull() publishes both with a single relaxed
  /// store — the Query API v2's non-blocking component_size /
  /// representative snapshot a consistent (count, min) pair with one
  /// acquire load at the root, under the same versioned double-collect as
  /// connected() (the version protocol, not store order, carries
  /// consistency; see component_size_nonblocking and DESIGN.md §7.3).
  std::atomic<uint64_t> vstat{kEmptyVstat};

  // --- writer-only fields ---------------------------------------------------
  Node* left = nullptr;
  Node* right = nullptr;
  /// Top bit set for vertex nodes (see Forest docs). 32 bits suffice:
  /// node_less breaks ties by address, so the order stays strict.
  uint32_t priority = 0;
  uint32_t size = 1;       ///< subtree node count (order statistics)
  Vertex tail = 0;         ///< vertex nodes: the vertex; arcs: edge tail
  Vertex head = 0;         ///< vertex nodes: == tail; arcs: edge head

  // --- flag inputs (lock-free adders and the writer) ------------------------
  /// Number of non-spanning edges adjacent to this vertex at this level
  /// (authoritative "local" input of the flag; vertex nodes only).
  std::atomic<uint32_t> local_nonspanning{0};
  /// Subtree contains a vertex with adjacent non-spanning edges at this
  /// level. Lock-free adders may set it to true bottom-up (Listing 6);
  /// the writer recomputes it with the write-false-then-recheck discipline.
  std::atomic<bool> sub_nonspanning{false};

  /// What the node is, and so which pool cell it lives in. Set once, before
  /// the node is published; readers read it on every ascent.
  enum class Kind : uint8_t { kArc, kVertex, kLevel0Vertex };
  Kind kind = Kind::kArc;
  bool arc_at_level = false;  ///< arc whose edge level == this forest's level
  bool sub_level_arc = false; ///< subtree contains such an arc

  static constexpr Vertex kNoVertexSentinel = ~Vertex{0};  ///< arc-only subtree
  static constexpr uint64_t kEmptyVstat = kNoVertexSentinel;  // count 0
  static constexpr uint64_t pack_vstat(uint32_t count, Vertex mn) noexcept {
    return (static_cast<uint64_t>(count) << 32) | mn;
  }
  static constexpr uint32_t vstat_count(uint64_t s) noexcept {
    return static_cast<uint32_t>(s >> 32);
  }
  static constexpr Vertex vstat_min(uint64_t s) noexcept {
    return static_cast<Vertex>(s);
  }

  bool is_vertex() const noexcept { return kind != Kind::kArc; }

  /// The root-only state of a level-0 vertex node — the one way to reach
  /// it. Every parent of a vertex node is a vertex node (vertex priorities
  /// lie above all arc priorities, and parents are higher), so a find_root
  /// that starts at a level-0 vertex node always ends at one.
  Level0Vertex& as_level0() noexcept;
  const Level0Vertex& as_level0() const noexcept;
};

static_assert(sizeof(Node) == kCacheLine, "ett::Node must fill one line");

/// A level-0 vertex node: the tour node plus the state only a component's
/// root uses, in a second cache line (128-B pool stride).
struct Level0Vertex final : Node {
  /// Per-component lock for the fine-grained variants (only ever taken on
  /// (candidate) roots, per Listing 2). A readers–writer lock so variant
  /// (7) can take it in shared mode for queries.
  RwSpinLock lock;
  /// Per-component spanning-edge-removal announcement of the full algorithm
  /// (Listing 5's `removal_op`, meaningful on roots only). seq_cst: its
  /// protocol is a store-load race (DESIGN.md §7.3).
  std::atomic<void*> removal_op{nullptr};
  /// Bracket state for lock-free value reads, meaningful on a root while its
  /// version is odd: `frozen` is the root's vstat when the bracket opened,
  /// `partner` the bracket's other root (tagged: a link's other root, or the
  /// fresh piece root once a cut commits; 0 while a cut is pending or
  /// relinking). Readers answer from them instead of the transient vstat
  /// (DESIGN.md §5.4). Both are stored before the odd bump, with release.
  std::atomic<uint64_t> frozen{kEmptyVstat};
  std::atomic<uintptr_t> partner{0};
};

static_assert(sizeof(Level0Vertex) == 2 * kCacheLine,
              "level-0 vertex nodes fill two lines");

inline Level0Vertex& Node::as_level0() noexcept {
  assert(kind == Kind::kLevel0Vertex && "root state on a non-level-0 node");
  return static_cast<Level0Vertex&>(*this);
}
inline const Level0Vertex& Node::as_level0() const noexcept {
  assert(kind == Kind::kLevel0Vertex && "root state on a non-level-0 node");
  return static_cast<const Level0Vertex&>(*this);
}

/// Strict total order on (priority, address); "parent must be higher".
inline bool node_less(const Node* a, const Node* b) noexcept {
  return a->priority != b->priority ? a->priority < b->priority : a < b;
}

struct RootSnapshot {
  const Node* root = nullptr;
  uint64_t version = 0;
  friend bool operator==(const RootSnapshot&, const RootSnapshot&) = default;
};

/// The vertex ids met on one parent-chain ascent plus the root's vstat read
/// at its top: the label cache's unit of publication (DESIGN.md §8.3). A
/// read that validates it sets `version` to the root version it loaded
/// both before and after the ids and the stat; only an even one is
/// publishable (no bracket was open on the root in between). A writer that
/// closes a bracket may instead fill it with every vertex of a component
/// of at most kCap vertices and its root's even version (§8.2).
struct ChainRead {
  static constexpr std::size_t kCap = 64;  ///< deeper chains keep a prefix
  const Node* root = nullptr;
  uint64_t version = 1;
  uint64_t stat = 0;
  std::size_t len = 0;
  Vertex ids[kCap];
  bool publishable() const noexcept { return (version & 1) == 0; }
};

/// Lock-free root search (Listing 1's find_root): follows parent pointers,
/// returns the sink and its version. Caller must hold an ebr guard.
RootSnapshot find_root_versioned(const Node* start) noexcept;

/// Writer-side root search (no version needed).
Node* find_root(Node* start) noexcept;

/// Lock-free linearizable connectivity check between two nodes of (possibly)
/// different forests' trees — Listing 1 verbatim, including the fifth
/// find_root that Appendix A proves necessary. Pins EBR internally. When
/// `cu` / `cv` are given, the re-check ascents also collect u's and v's
/// chains for the label cache, at no extra ascent.
bool connected_nonblocking(const Node* nu, const Node* nv,
                           ChainRead* cu = nullptr,
                           ChainRead* cv = nullptr) noexcept;

/// Lock-free bottom-up flag raising used by non-blocking non-spanning edge
/// additions (Listing 6's set_flags_up). Caller must hold an ebr guard.
void set_flags_up(Node* x) noexcept;

/// One Euler-tour forest (one level of the HDT structure).
///
/// Priorities: vertex nodes draw from [2^31, 2^32), arc nodes from [0, 2^31),
/// which guarantees the root of a component is always a vertex node. That
/// yields (a) stable roots under edge insertion (the post-link root is one of
/// the two pre-link roots, as required by invariant I3), and (b) removed arc
/// nodes are never roots, so a split has exactly one new root.
///
/// Only a level-0 forest's vertex nodes are Level0Vertex: bracket state
/// (frozen/partner) is kept only there, since lock-free value reads and the
/// label cache only ever consult level 0; upper levels still bump versions.
class Forest {
 public:
  /// `level` sizes the arc map: a level-0 forest presizes for n arc pairs, a
  /// level-i forest for n >> i (its trees hold at most n / 2^i vertices and
  /// in practice far fewer edges reach it). The map grows by segments past
  /// that.
  explicit Forest(Vertex n, int level = 0);
  ~Forest();
  Forest(const Forest&) = delete;
  Forest& operator=(const Forest&) = delete;

  Vertex num_vertices() const noexcept { return n_; }
  int level() const noexcept { return level_; }

  /// The vertex's tour node, creating it lazily (thread-safe; concurrent
  /// creators race with CAS and the loser frees its allocation).
  Node* vertex_node(Vertex v);
  /// As above but returns null instead of creating.
  Node* vertex_node_if_exists(Vertex v) const noexcept {
    return nodes_[v].load(std::memory_order_acquire);
  }

  /// True if (u,v) is a spanning edge of this forest.
  bool has_edge(Vertex u, Vertex v) const;

  /// Writer: are u and v in the same tree (root comparison, not versioned)?
  bool connected_writer(Vertex u, Vertex v);

  /// Lock-free linearizable query (Listing 1); creates the vertex nodes if
  /// missing (isolated vertices are their own components). Optional chain
  /// collection as in connected_nonblocking.
  bool connected(Vertex u, Vertex v, ChainRead* cu = nullptr,
                 ChainRead* cv = nullptr);

  /// Writer: add spanning edge (u,v). Preconditions: u,v in different trees,
  /// (u,v) not in the forest. Performs the atomic merge of Fig. 2.
  void link(Vertex u, Vertex v);

  /// Writer: remove spanning edge (u,v). Precondition: has_edge(u,v).
  /// Performs the atomic split of Fig. 3.
  void cut(Vertex u, Vertex v);

  /// Two-phase cut, used by the HDT engine for level-0 removals. The paper's
  /// linearization for spanning remove_edge is: "if there is no replacement
  /// in F0 the linearization point is the same as for the ETT removal,
  /// otherwise components of connectivity do not change". cut_prepare
  /// restructures the tour into the two would-be trees while keeping every
  /// parent chain rooted at the old root, so concurrent readers still see
  /// one component. The replacement search then runs on the pieces
  /// (find_piece_root / writer fields); finally either
  ///  * cut_commit — no replacement: bump + single unlink (linearization), or
  ///  * cut_relink — replacement (x,y) found: splice the pieces back together
  ///    through the new arcs; readers never observe any change.
  struct CutHandle {
    Node* root_u = nullptr;  ///< piece containing u (writer view)
    Node* root_v = nullptr;  ///< piece containing v
    Node* arc1 = nullptr;    ///< removed arcs, retired at commit/relink
    Node* arc2 = nullptr;
    Node* old_root = nullptr;
    Vertex u = 0, v = 0;
    Vertex cache_rep = 0;      ///< label-cache slot expired at prepare
    uint64_t cache_word = 0;   ///< its prior word, restored by cut_relink
  };
  CutHandle cut_prepare(Vertex u, Vertex v);
  void cut_commit(CutHandle& h);
  void cut_relink(CutHandle& h, Vertex x, Vertex y);

  /// Writer-side root of the *piece* containing x: ascends genuine
  /// parent/child edges only, so inside a pending cut it identifies the
  /// would-be component, while readers' find_root still reaches the old
  /// root through stale pointers. On a quiescent tree it equals find_root.
  static Node* find_piece_root(Node* x) noexcept;

  /// Number of vertices in u's component (writer-side).
  uint32_t component_vertices(Vertex u);

  /// Smallest vertex id in u's component (writer-side) — the canonical
  /// representative of the Query API v2.
  Vertex representative_writer(Vertex u);

  /// Lock-free component size / canonical representative: the root's
  /// packed vstat under root_vstat_nonblocking's protocol.
  uint64_t component_size_nonblocking(Vertex u);
  Vertex representative_nonblocking(Vertex u);

  /// The lock-free value read behind both (DESIGN.md §5.4): a versioned
  /// double-collect of u's root around its vstat. An even, repeated
  /// version means no bracket was open on the root, so the word is
  /// stable; an odd one answers from the bracket's frozen word and
  /// partner, after the second ascent proved u's chain still ends at that
  /// root. With `chain`, the second ascent also collects u's chain
  /// (publishable iff the version was even). Pins EBR internally. Level-0
  /// forests only: the bracket state lives on Level0Vertex.
  uint64_t root_vstat_nonblocking(Vertex u, ChainRead* chain = nullptr);

  /// Writer: mark/unmark the (u,v) arc pair as "level arc" (the edge's level
  /// equals this forest's level) and fix subtree flags. Used by the HDT
  /// engine to iterate spanning edges to promote.
  void set_arc_at_level(Vertex u, Vertex v, bool value);

  /// Writer: adjust the local non-spanning counter of v's node and raise /
  /// recompute subtree flags (increment uses set_flags_up, decrement leaves
  /// flags stale-true per Listing 6's remove_info).
  void nonspanning_inc(Vertex v);
  void nonspanning_dec(Vertex v);

  /// Writer: recompute x's subtree flag from its children with the
  /// write-false-then-recheck discipline (Listing 6's recalculate_flags).
  static void recalculate_flags(Node* x) noexcept;

  /// Writer helpers for the HDT engine's subtree iteration.
  static uint32_t subtree_vertices(const Node* x) noexcept {
    return x ? Node::vstat_count(x->vstat.load(std::memory_order_relaxed))
             : 0;
  }

  /// Attach (or detach, with nullptr) the epoch-published label cache
  /// (DESIGN.md §8). Only ever set on a level-0 forest, by its engine's
  /// cache, before concurrent use begins; when set, every structural
  /// bracket — link(), and cut_prepare() through cut_commit()/cut_relink()
  /// — expires the cache words of the one or two components it touches,
  /// right after bumping their roots odd (a relink restores the word it
  /// expired: net zero). A link or commit that expired a live era then
  /// republishes each resulting component of at most ChainRead::kCap
  /// vertices itself (§8.2).
  void set_label_cache(LabelCache* c) noexcept { cache_ = c; }

  /// In-order tour of u's component (testing/debugging).
  std::vector<const Node*> tour(Vertex u);

  /// Validate treap invariants of u's component (testing). Aborts via assert
  /// on violation; returns node count.
  std::size_t validate(Vertex u);

 private:
  friend class ForestTestPeer;

  struct ArcPair {
    Node* uv = nullptr;
    Node* vu = nullptr;
  };

  Node* new_vertex_node(Vertex v);
  Node* new_arc_node(Vertex t, Vertex h);

  static void set_parent(Node* child, Node* p) noexcept;
  static void pull(Node* x) noexcept;
  static uint32_t rank_of(Node* x) noexcept;  // in-order position
  /// Treap merge; never touches the result root's parent (invariant I2).
  static Node* merge(Node* a, Node* b) noexcept;
  /// Split off [begin..x) / [x..end]; piece roots keep stale parents.
  static std::pair<Node*, Node*> split_before(Node* x) noexcept;
  /// Split off [begin..x] / (x..end].
  static std::pair<Node*, Node*> split_after(Node* x) noexcept;
  static void split_walk(Node* prev, Node*& l, Node*& r) noexcept;
  /// Rotate u's tour so it starts at u; returns the (unchanged) root.
  Node* reroot(Node* u_node) noexcept;

  /// Bracket hooks (I3): at level 0 record the frozen word and partner,
  /// then bump odd; close bumps even.
  void open_bracket(Node* root, uintptr_t partner) noexcept;
  static void close_bracket(Node* root) noexcept;

  Vertex n_;
  int level_;
  LabelCache* cache_ = nullptr;  ///< level-0 only; see set_label_cache
  std::unique_ptr<std::atomic<Node*>[]> nodes_;
  ShardedEdgeMap<ArcPair> arcs_;
};

}  // namespace condyn::ett
