// Tests for the two-phase cut (the mechanism behind "a spanning removal
// linearizes only at commit, or never if a replacement exists") and the
// writer-side piece bookkeeping it exposes — the machinery the HDT engines
// rely on for pending replacement searches (DESIGN.md §4.1, Fig. 3).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/ett.hpp"
#include "util/backoff.hpp"
#include "util/ebr.hpp"

namespace condyn {
namespace {

using ett::Forest;
using ett::Node;

TEST(EttPending, ReadersSeeOneComponentUntilCommit) {
  Forest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);

  Forest::CutHandle h = f.cut_prepare(1, 2);
  // The cut is physically prepared but not linearized: lock-free readers
  // must still see one component.
  EXPECT_TRUE(f.connected(0, 3));
  EXPECT_TRUE(f.connected(1, 2));
  // Writer-side view already distinguishes the two would-be pieces.
  EXPECT_NE(h.root_u, h.root_v);
  EXPECT_NE(Forest::find_piece_root(f.vertex_node(0)),
            Forest::find_piece_root(f.vertex_node(3)));

  f.cut_commit(h);
  EXPECT_FALSE(f.connected(0, 3));
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.connected(2, 3));
}

TEST(EttPending, RelinkMakesTheRemovalInvisible) {
  // Remove spanning edge (1,2) but splice the pieces back through (0,3):
  // readers must never observe any change, and the final structure carries
  // the replacement edge.
  Forest f(4);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);

  Forest::CutHandle h = f.cut_prepare(1, 2);
  EXPECT_TRUE(f.connected(0, 3));
  f.cut_relink(h, 0, 3);
  EXPECT_TRUE(f.connected(0, 3));
  EXPECT_TRUE(f.connected(1, 2));  // still connected via 1-0-3-2
  EXPECT_FALSE(f.has_edge(1, 2));
  EXPECT_TRUE(f.has_edge(0, 3));
  f.validate(0);
}

TEST(EttPending, PieceVertexCountsDriveSmallerSideChoice) {
  // Path 0-1-2-3-4-5; cutting (1,2) yields pieces of 2 and 4 vertices.
  Forest f(6);
  for (Vertex i = 0; i + 1 < 6; ++i) f.link(i, i + 1);
  Forest::CutHandle h = f.cut_prepare(1, 2);
  const uint32_t a = Forest::subtree_vertices(h.root_u);
  const uint32_t b = Forest::subtree_vertices(h.root_v);
  EXPECT_EQ(std::min(a, b), 2u);
  EXPECT_EQ(std::max(a, b), 4u);
  f.cut_relink(h, 1, 2);  // put the edge back; nothing changed logically
  EXPECT_TRUE(f.connected(0, 5));
}

TEST(EttPending, ReadersDuringPendingWindowStressed) {
  // A writer holds cuts pending for extended windows while readers assert
  // the not-yet-linearized removal stays invisible.
  Forest f(8);
  for (Vertex i = 0; i + 1 < 8; ++i) f.link(i, i + 1);

  std::atomic<bool> stop{false};
  std::atomic<bool> pending{false};
  std::atomic<uint64_t> observed_while_pending{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const bool was_pending = pending.load(std::memory_order_seq_cst);
      const bool conn = f.connected(0, 7);
      // If the cut was pending *before* the query started, the query must
      // still report connected (the split has not linearized). If it was
      // not pending, the writer may have committed+relinked meanwhile, so
      // either answer would be a valid linearization — only assert the
      // pending case.
      if (was_pending && pending.load(std::memory_order_seq_cst)) {
        EXPECT_TRUE(conn);
        observed_while_pending.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int round = 0; round < 300; ++round) {
    const Vertex i = static_cast<Vertex>(round % 7);
    Forest::CutHandle h = f.cut_prepare(i, i + 1);
    pending.store(true, std::memory_order_seq_cst);
    // Keep the window open until the reader verified a query inside it —
    // a fixed short spin never overlaps the reader on a single-core box.
    // Bounded so a starved reader cannot hang the test.
    const uint64_t seen = observed_while_pending.load();
    for (int spin = 0;
         spin < 20000 && observed_while_pending.load() == seen; ++spin) {
      std::this_thread::yield();
    }
    pending.store(false, std::memory_order_seq_cst);
    f.cut_relink(h, i, i + 1);  // always restore: net no-op for readers
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(observed_while_pending.load(), 0u);
}

TEST(EttPending, VersionsBumpAcrossPreparedCuts) {
  Forest f(4);
  f.link(0, 1);
  f.link(1, 2);
  auto guard = ebr::pin();
  const auto before = ett::find_root_versioned(f.vertex_node(0));
  Forest::CutHandle h = f.cut_prepare(1, 2);
  // Root version already bumped at prepare, to odd: the bracket is open
  // until commit (I3's parity rule), which closes it even.
  const auto during = ett::find_root_versioned(f.vertex_node(0));
  EXPECT_EQ(before.root, during.root);
  EXPECT_GT(during.version, before.version);
  EXPECT_EQ(before.version % 2, 0u);
  EXPECT_EQ(during.version % 2, 1u);
  f.cut_commit(h);
  const auto after = ett::find_root_versioned(f.vertex_node(0));
  EXPECT_EQ(after.version % 2, 0u);
  EXPECT_GT(after.version, during.version);
}

}  // namespace
}  // namespace condyn
