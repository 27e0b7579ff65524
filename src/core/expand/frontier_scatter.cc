#include "core/expand/frontier_scatter.h"

namespace gum::core {

std::vector<WorkUnit> BuildWorkUnits(const FrontierSoA& frontier,
                                     const FStealDecision& fs,
                                     const FrontierCensus& census,
                                     const std::vector<int>& owner_of_fragment,
                                     const std::vector<int>& active) {
  const int n = frontier.num_fragments();
  std::vector<WorkUnit> units;
  for (int i = 0; i < n; ++i) {
    const size_t frontier_size = frontier.FragmentSize(i);
    if (frontier_size == 0) continue;
    if (fs.applied && census.loads[i] > 0) {
      GUM_CHECK(census.degree_prefix[i].size() == frontier_size)
          << "the census must be taken over this frontier";
      const auto ranges = SelectStolenRanges(census.degree_prefix[i],
                                             fs.assignment[i], active);
      for (size_t w = 0; w < active.size(); ++w) {
        if (ranges[w].first < ranges[w].second) {
          units.push_back({i, active[w], ranges[w].first, ranges[w].second});
        }
      }
    } else {
      units.push_back({i, owner_of_fragment[i], 0, frontier_size});
    }
  }
  return units;
}

void CutGatherBlocks(std::span<const graph::EdgeId> offsets,
                     size_t num_blocks, std::vector<size_t>* bounds) {
  const size_t num_v = offsets.size() - 1;
  const size_t words = (num_v + 63) / 64;
  // The cost of the destinations before word boundary w: their in-edges
  // plus themselves. It ascends with w.
  const auto cost_before = [&](size_t w) {
    const size_t x = std::min(w * 64, num_v);
    return offsets[x] + x;
  };
  const uint64_t total = cost_before(words);
  bounds->resize(num_blocks + 1);
  (*bounds)[0] = 0;
  size_t w = 0;
  for (size_t b = 1; b < num_blocks; ++b) {
    // The first word boundary at or past block b's share of the cost.
    const uint64_t share = total * b / num_blocks;
    size_t hi = words;
    while (w < hi) {
      const size_t mid = w + (hi - w) / 2;
      if (cost_before(mid) < share) {
        w = mid + 1;
      } else {
        hi = mid;
      }
    }
    (*bounds)[b] = std::min(w * 64, num_v);
  }
  (*bounds)[num_blocks] = num_v;
}

}  // namespace gum::core
