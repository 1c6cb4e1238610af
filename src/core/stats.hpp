#pragma once

#include <cstdint>

// Memory-subsystem counters (pool hits, allocator calls, bytes) ride
// alongside the operation counters: the harness resets and collects
// pool_stats::local() at the same points as op_stats::local(), and
// bench_suite's `memory` section reports both (DESIGN.md §7.4).
#include "util/pool_stats.hpp"

namespace condyn::op_stats {

/// Thread-local operation statistics matching what the paper reports:
///  * read retries (§5.3 "more than 99.99% reads succeed on the first try");
///  * non-spanning vs spanning update counts (Tables 3 and 4);
///  * non-blocking vs blocking update paths.
struct Counters {
  uint64_t reads = 0;
  uint64_t read_retries = 0;          ///< extra passes of Listing 1's loop
  uint64_t additions = 0;
  uint64_t nonspanning_additions = 0; ///< adds that did not touch the forest
  uint64_t removals = 0;
  uint64_t nonspanning_removals = 0;  ///< removals of non-forest edges
  uint64_t nonblocking_updates = 0;   ///< updates completed without locks
  uint64_t replacement_searches = 0;
  uint64_t replacements_found = 0;
  uint64_t sampling_hits = 0;         ///< replacement found on the sampling fast path
  uint64_t label_hits = 0;            ///< label-cache O(1) answers (DESIGN.md §8)
  uint64_t label_misses = 0;          ///< label-cache fallbacks to the tree walk
  uint64_t label_publishes = 0;       ///< miss chains + writer relabels published

  Counters& operator+=(const Counters& o) noexcept {
    reads += o.reads;
    read_retries += o.read_retries;
    additions += o.additions;
    nonspanning_additions += o.nonspanning_additions;
    removals += o.removals;
    nonspanning_removals += o.nonspanning_removals;
    nonblocking_updates += o.nonblocking_updates;
    replacement_searches += o.replacement_searches;
    replacements_found += o.replacements_found;
    sampling_hits += o.sampling_hits;
    label_hits += o.label_hits;
    label_misses += o.label_misses;
    label_publishes += o.label_publishes;
    return *this;
  }
};

Counters& local() noexcept;
void reset_local() noexcept;

}  // namespace condyn::op_stats
