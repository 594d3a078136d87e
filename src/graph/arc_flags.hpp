// One flag per arc, kept in the receiving node's own CSR range: local
// O(degree) state for "have I already heard this from neighbor u?". An
// event-driven algorithm uses it to count each neighbor's one-time
// announcement once, so a duplicated record (fault::FaultSpec::
// duplicate_prob) is absorbed instead of counted twice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace arbods {

class ArcFlags {
 public:
  /// All flags clear, one per arc of g.
  void reset(const Graph& g) { flags_.assign(2 * g.num_edges(), 0); }

  /// Sets v's flag for neighbor u; true iff it was clear. Touches only
  /// v's range, so calls for distinct v are race-free (bytes, not
  /// std::vector<bool> bits).
  bool set_once(const Graph& g, NodeId v, NodeId u) {
    const auto nb = g.neighbors(v);
    const auto it = std::lower_bound(nb.begin(), nb.end(), u);
    ARBODS_DCHECK(it != nb.end() && *it == u);
    std::uint8_t& flag =
        flags_[g.arc_begin(v) + static_cast<std::size_t>(it - nb.begin())];
    if (flag != 0) return false;
    flag = 1;
    return true;
  }

 private:
  std::vector<std::uint8_t> flags_;
};

}  // namespace arbods
