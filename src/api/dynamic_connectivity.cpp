#include "api/dynamic_connectivity.hpp"

namespace condyn {

BatchResult DynamicConnectivity::apply_batch(std::span<const Op> ops) {
  BatchResult r;
  r.values.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    r.set_op(i, ops[i].kind, exec_single(*this, ops[i]));
  }
  return r;
}

ComponentsSnapshot DynamicConnectivity::components() {
  // One representative() per vertex, through the virtual so every variant's
  // native (lock-free or locked) read path is used. Each entry is
  // individually linearizable; the aggregate is consistent at quiescence.
  ComponentsSnapshot s;
  const Vertex n = num_vertices();
  s.labels.resize(n);
  for (Vertex v = 0; v < n; ++v) s.labels[v] = representative(v);
  return s;
}

}  // namespace condyn
