// Utility substrate tests: PRNG determinism and bounds, spin/RW/elision
// locks (mutual exclusion, shared readers, try_lock), lock-wait accounting,
// backoff, thread indexing.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/elision_lock.hpp"
#include "util/lock_stats.hpp"
#include "util/random.hpp"
#include "util/rw_lock.hpp"
#include "util/small_flat_set.hpp"
#include "util/spinlock.hpp"
#include "util/thread_index.hpp"

namespace condyn {
namespace {

// --------------------------------------------------------------------------
// SmallFlatSet (the AdjSet representation of the locked engine)
// --------------------------------------------------------------------------

TEST(SmallFlatSet, InsertEraseContains) {
  SmallFlatSet<uint32_t> s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5)) << "duplicate insert must be rejected";
  EXPECT_TRUE(s.insert(9));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.front(), 9u);
}

TEST(SmallFlatSet, GrowsPastInlineCapacity) {
  SmallFlatSet<uint32_t, 4> s;
  for (uint32_t v = 0; v < 100; ++v) EXPECT_TRUE(s.insert(v));
  EXPECT_EQ(s.size(), 100u);
  for (uint32_t v = 0; v < 100; ++v) EXPECT_TRUE(s.contains(v));
  std::set<uint32_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 100u);
  for (uint32_t v = 0; v < 100; v += 2) EXPECT_TRUE(s.erase(v));
  EXPECT_EQ(s.size(), 50u);
  for (uint32_t v = 1; v < 100; v += 2) EXPECT_TRUE(s.contains(v));
}

TEST(SmallFlatSet, FrontAndDrainLikeTheEngine) {
  // The replacement search drains a set via front()+erase() — the loop must
  // terminate and visit every element exactly once.
  SmallFlatSet<uint32_t> s;
  for (uint32_t v = 10; v < 30; ++v) s.insert(v);
  std::set<uint32_t> drained;
  while (!s.empty()) {
    const uint32_t v = s.front();
    EXPECT_TRUE(drained.insert(v).second);
    EXPECT_TRUE(s.erase(v));
  }
  EXPECT_EQ(drained.size(), 20u);
}

// --------------------------------------------------------------------------
// Random
// --------------------------------------------------------------------------

TEST(Random, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Random, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Random, NextBelowRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Random, Mix64IsAPermutationSample) {
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u) << "mix64 must not collide on small inputs";
}

// --------------------------------------------------------------------------
// Locks — shared mutual-exclusion harness
// --------------------------------------------------------------------------

template <typename Lock>
void mutual_exclusion_torture(Lock& mu) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  int64_t counter = 0;  // deliberately non-atomic: the lock must protect it
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<Lock> lk(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(SpinLock, MutualExclusion) {
  SpinLock mu;
  mutual_exclusion_torture(mu);
}

TEST(SpinLock, TryLock) {
  SpinLock mu;
  EXPECT_TRUE(mu.try_lock());
  EXPECT_TRUE(mu.is_locked());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(RwSpinLock, MutualExclusion) {
  RwSpinLock mu;
  mutual_exclusion_torture(mu);
}

TEST(RwSpinLock, ReadersShareDeterministically) {
  // Two readers hold the lock simultaneously: the second acquisition must
  // succeed while the first is still held (would deadlock on an exclusive
  // lock), and a writer's try_lock must fail during that window.
  RwSpinLock mu;
  mu.lock_shared();
  std::atomic<bool> second_reader_in{false};
  std::thread reader([&] {
    mu.lock_shared();  // must not block on the first shared holder
    second_reader_in.store(true, std::memory_order_release);
    mu.unlock_shared();
  });
  reader.join();
  EXPECT_TRUE(second_reader_in.load());
  EXPECT_FALSE(mu.try_lock()) << "writer entered past an active reader";
  mu.unlock_shared();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(RwSpinLock, NoReaderWriterOverlapUnderChurn) {
  RwSpinLock mu;
  std::atomic<int> readers_inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        mu.lock_shared();
        readers_inside.fetch_add(1);
        readers_inside.fetch_sub(1);
        mu.unlock_shared();
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 2000; ++i) {
      mu.lock();
      if (readers_inside.load() != 0) overlap.store(true);
      mu.unlock();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overlap.load()) << "reader/writer overlap detected";
}

TEST(ElisionLock, MutualExclusionWithOrWithoutRtm) {
  ElisionLock mu;
  mutual_exclusion_torture(mu);
  // On this host elision may or may not be available; either way the lock
  // must have behaved as a lock (asserted above) and report a stable answer.
  EXPECT_EQ(ElisionLock::htm_available(), ElisionLock::htm_available());
}

template <typename Lock>
void expect_only_contended_wait_recorded() {
  Lock mu;
  lock_stats::reset_local();
  mu.lock();
  std::atomic<bool> about_to_lock{false};
  std::thread waiter([&] {
    lock_stats::reset_local();
    about_to_lock.store(true, std::memory_order_release);
    mu.lock();  // must spin until the main thread releases
    mu.unlock();
    EXPECT_GT(lock_stats::local().wait_ns, 0u);
    EXPECT_EQ(lock_stats::local().contended, 1u);
  });
  // Release only once the waiter is provably inside its lock() spin (the
  // flag plus a sleep removes the thread-startup race that made a fixed
  // sleep flaky under load).
  while (!about_to_lock.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mu.unlock();
  waiter.join();
  // The uncontended acquisition on this thread took the fast path.
  EXPECT_EQ(lock_stats::local().wait_ns, 0u);
  EXPECT_EQ(lock_stats::local().acquisitions, 1u);
  EXPECT_EQ(lock_stats::local().contended, 0u);
}

TEST(LockStats, ContendedWaitIsRecorded) {
  expect_only_contended_wait_recorded<SpinLock>();
  expect_only_contended_wait_recorded<RwSpinLock>();
}

// --------------------------------------------------------------------------
// Backoff / thread index
// --------------------------------------------------------------------------

TEST(Backoff, PauseProgressesAndResets) {
  Backoff b(16);
  for (int i = 0; i < 20; ++i) b.pause();  // must not hang past the cap
  b.reset();
  b.pause();
  SUCCEED();
}

TEST(ThreadIndex, StablePerThreadUniqueAcrossThreads) {
  const unsigned mine = thread_index();
  EXPECT_EQ(thread_index(), mine);
  std::set<unsigned> seen;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const unsigned idx = thread_index();
      EXPECT_EQ(thread_index(), idx);
      std::lock_guard<std::mutex> lk(mu);
      seen.insert(idx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.count(mine), 0u);
}

}  // namespace
}  // namespace condyn
