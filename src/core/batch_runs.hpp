#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "api/dynamic_connectivity.hpp"

namespace condyn {

/// Shared walk for batched application (DESIGN.md §5.1), used by the locked
/// engine (Hdt::apply_batch) and the fine-grained variant so the reorder
/// semantics live in exactly one place.
///
/// Queries (connectivity, component size, representative) are reorder
/// barriers — they observe the whole edge set — so the batch decomposes into
/// queries and maximal runs of updates between them. Within a run, updates
/// on distinct edges commute (their return values and the resulting edge set
/// depend only on per-edge history), which makes a *stable* sort by
/// canonical edge key semantics-preserving while grouping same-edge and
/// same-component work back-to-back.
///
/// Calls, in batch order:
///   on_query(i)    — for each query op (any is_query kind), i its batch
///                    index;
///   on_run(order)  — for each maximal update run, `order` the run's batch
///                    indices stably sorted by edge key (valid only for the
///                    call).
template <typename QueryFn, typename RunFn>
void for_each_batch_run(std::span<const Op> ops, QueryFn&& on_query,
                        RunFn&& on_run) {
  std::vector<uint32_t> order;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (is_query(ops[i].kind)) {
      on_query(i);
      ++i;
      continue;
    }
    order.clear();
    for (; i < ops.size() && !is_query(ops[i].kind); ++i) {
      order.push_back(static_cast<uint32_t>(i));
    }
    std::stable_sort(order.begin(), order.end(),
                     [&ops](uint32_t a, uint32_t b) {
                       return Edge(ops[a].u, ops[a].v).key() <
                              Edge(ops[b].u, ops[b].v).key();
                     });
    on_run(std::span<const uint32_t>(order));
  }
}

}  // namespace condyn
