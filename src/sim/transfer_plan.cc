#include "sim/transfer_plan.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "sim/topology.h"

namespace gum::sim {
namespace {

// Stripe across at most this many paths.
constexpr int kMaxPaths = 4;
// Smaller payloads stay single-path: per-stripe setup cost would dominate
// and single-path fair must remain the common fast case.
constexpr double kMinStripeBytes = 32768;
// Paths slower than this fraction of the best candidate are not worth a
// stripe (their chunk would dominate the makespan under contention).
constexpr double kMinPathGbpsFraction = 0.10;

// Candidate path kinds, in the deterministic tie-break order used when two
// candidates offer the same bandwidth.
enum class PathKind { kDirect = 0, kTransit = 1, kPcie = 2 };

struct Candidate {
  PathKind kind = PathKind::kDirect;
  int transit = -1;
  double gbps = 0.0;
};

// Enumerate the mutually link-disjoint candidate paths for (src, dst):
// the direct lane, one 2-hop route per distinct transit device (each uses
// only its own (src,k) and (k,dst) lanes), and the PCIe/QPI pool (its own
// lane family). Sorted bandwidth-descending with a deterministic
// tie-break so plans are stable across runs and platforms.
std::vector<Candidate> EnumerateCandidates(int src, int dst, int num_devices,
                                           const TransferPlanner::DirectFn& direct) {
  std::vector<Candidate> candidates;
  const double d = direct(src, dst);
  if (d > 0.0) candidates.push_back({PathKind::kDirect, -1, d});
  for (int k = 0; k < num_devices; ++k) {
    if (k == src || k == dst) continue;
    const double leg1 = direct(src, k);
    const double leg2 = direct(k, dst);
    if (leg1 <= 0.0 || leg2 <= 0.0) continue;
    const double gbps = std::min(leg1, leg2) * Topology::kTransitEfficiency;
    if (gbps > 0.0) candidates.push_back({PathKind::kTransit, k, gbps});
  }
  candidates.push_back({PathKind::kPcie, -1, Topology::kPcieGBps});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.gbps != b.gbps) return a.gbps > b.gbps;
              if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              return a.transit < b.transit;
            });
  return candidates;
}

}  // namespace

const char* MultipathModeName(MultipathMode mode) {
  switch (mode) {
    case MultipathMode::kOff: return "off";
    case MultipathMode::kOn: return "on";
  }
  return "unknown";
}

Result<MultipathMode> ParseMultipathMode(const std::string& name) {
  if (name == "off") return MultipathMode::kOff;
  if (name == "on") return MultipathMode::kOn;
  return Status::InvalidArgument("unknown multipath mode '" + name +
                                 "' (expected off|on)");
}

TransferPlan TransferPlanner::Build(int src, int dst, int num_devices,
                                    double bytes, const DirectFn& direct) {
  GUM_CHECK(src >= 0 && src < num_devices);
  GUM_CHECK(dst >= 0 && dst < num_devices);
  TransferPlan plan;
  plan.src = src;
  plan.dst = dst;
  const std::vector<Candidate> candidates =
      EnumerateCandidates(src, dst, num_devices, direct);
  GUM_CHECK(!candidates.empty());  // the PCIe pool always exists
  plan.best_single_gbps = candidates.front().gbps;

  const int take = bytes < kMinStripeBytes ? 1 : kMaxPaths;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(plan.paths.size()) >= take) break;
    if (c.gbps < kMinPathGbpsFraction * plan.best_single_gbps) break;
    PlanPath path;
    path.transit = c.kind == PathKind::kTransit ? c.transit : -1;
    path.via_pcie = c.kind == PathKind::kPcie;
    path.gbps = c.gbps;
    plan.paths.push_back(path);
    plan.total_gbps += c.gbps;
  }
  // Proportional split: every stripe finishes together when uncontended.
  for (PlanPath& path : plan.paths) {
    path.fraction = path.gbps / plan.total_gbps;
  }
  return plan;
}

double ReductionTree::SyncFactor(int device) const {
  if (!InTree(device)) return 0.0;
  if (star) return static_cast<double>(members);  // legacy all-to-one charge
  const int neighbors = children[device] + (device == root ? 0 : 1);
  return static_cast<double>(neighbors + height);
}

ReductionTree ReductionTree::Build(int num_devices,
                                   const std::vector<int>& active,
                                   const TransferPlanner::DirectFn& direct) {
  ReductionTree tree;
  tree.parent.assign(num_devices, -1);
  tree.children.assign(num_devices, 0);
  tree.depth.assign(num_devices, -1);
  tree.members = static_cast<int>(active.size());
  if (active.empty()) return tree;

  // Root: the active device with the highest aggregate direct bandwidth to
  // the rest of the group (ties to the lowest id) — the natural hub of a
  // hybrid-cube-mesh subset.
  int root = active.front();
  double best_sum = -1.0;
  for (int d : active) {
    double sum = 0.0;
    for (int o : active) {
      if (o != d) sum += direct(d, o);
    }
    if (sum > best_sum) {
      best_sum = sum;
      root = d;
    }
  }
  tree.root = root;
  tree.depth[root] = 0;

  // Prim-style max-bandwidth growth: repeatedly attach the non-member with
  // the fastest direct link into the tree; ties break on (child id asc,
  // parent id asc) for determinism.
  std::vector<int> pending;
  for (int d : active) {
    if (d != root) pending.push_back(d);
  }
  bool used_nvlink = false;
  while (!pending.empty()) {
    int best_child = -1, best_parent = -1;
    double best_bw = 0.0;
    for (int c : pending) {
      for (int p : active) {
        if (tree.depth[p] < 0) continue;
        const double bw = direct(c, p);
        if (bw <= 0.0) continue;
        if (bw > best_bw ||
            (bw == best_bw && (c < best_child ||
                               (c == best_child && p < best_parent)))) {
          best_bw = bw;
          best_child = c;
          best_parent = p;
        }
      }
    }
    if (best_child < 0) {
      // No NVLink into the tree: star-attach everything left to the root
      // (the legacy all-to-one edge over PCIe / 2-hop routing).
      for (int c : pending) {
        tree.parent[c] = root;
        tree.children[root] += 1;
        tree.depth[c] = 1;
      }
      pending.clear();
      break;
    }
    used_nvlink = true;
    tree.parent[best_child] = best_parent;
    tree.children[best_parent] += 1;
    tree.depth[best_child] = tree.depth[best_parent] + 1;
    pending.erase(std::find(pending.begin(), pending.end(), best_child));
  }
  for (int d : active) {
    tree.height = std::max(tree.height, tree.depth[d]);
  }
  tree.star = !used_nvlink;
  return tree;
}

std::string RenderMultipathAscii(const MultipathStats& stats) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "multi-path striping: %lld bulk transfers (%lld striped), "
                "%lld paths used, %lld dropped by faults\n",
                static_cast<long long>(stats.bulk_transfers),
                static_cast<long long>(stats.striped_transfers),
                static_cast<long long>(stats.paths_used),
                static_cast<long long>(stats.paths_dropped));
  out += line;
  std::snprintf(line, sizeof(line),
                "  bytes by path kind: direct %.3f MB, transit %.3f MB, "
                "pcie %.3f MB\n",
                stats.direct_bytes / 1e6, stats.transit_bytes / 1e6,
                stats.pcie_bytes / 1e6);
  out += line;
  std::snprintf(line, sizeof(line),
                "  stripe efficiency: %.2fx (single-path %.3f ms -> striped "
                "%.3f ms, uncontended)\n",
                stats.StripeEfficiency(), stats.single_path_ns / 1e6,
                stats.striped_ns / 1e6);
  out += line;
  return out;
}

}  // namespace gum::sim
