#include "workloads.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "sim/topology.h"

namespace perfbench {

namespace {

using gum::graph::Edge;
using gum::graph::MutationEvent;
using gum::graph::MutationKind;
using gum::graph::VertexId;

constexpr size_t kSourcePool = 256;
// Closure sets generated per run; barriers past the last one cycle back.
constexpr int kClosureSets = 1024;
// Distinct streams drawn from one workload seed.
constexpr uint64_t kSourceSalt = 0x5eedf00d00000001ULL;
constexpr uint64_t kClosureSalt = 0x5eedf00d00000002ULL;

// Workload seeds start at 0 or 1; the generators and partitioner want a
// nonzero, well-mixed seed.
uint64_t GraphSeed(uint64_t seed) { return seed * 2654435761ULL + 17; }

gum::graph::EdgeList SocialGraph(uint64_t seed) {
  gum::graph::RmatOptions opt;
  opt.scale = 16;
  opt.edge_factor = 16;
  opt.a = 0.62;
  opt.b = 0.19;
  opt.c = 0.12;
  opt.permute_vertices = false;
  opt.weighted = true;
  opt.seed = GraphSeed(seed);
  return gum::graph::Rmat(opt);
}

// 128x128 keeps a query's working set (~1 MB) inside one core's 2 MB L2.
// At 256x256 (~4 MB) it spilled into the shared L3, where co-tenant load
// on the reference VM swung road-async's p50 between 12 and 19 ms from one
// minute to the next; six interleaved runs at 128x128 stayed in 4.5-5.1 ms.
gum::graph::EdgeList RoadGraph(uint64_t seed) {
  gum::graph::RoadGridOptions opt;
  opt.rows = 128;
  opt.cols = 128;
  opt.seed = GraphSeed(seed);
  return gum::graph::RoadGrid(opt);
}

// Draws kClosedSegments distinct segment indices, none of them in `avoid`.
std::vector<size_t> DrawClosureSet(gum::Rng& rng, size_t num_segments,
                                   const std::unordered_set<size_t>& avoid) {
  std::unordered_set<size_t> chosen;
  std::vector<size_t> set;
  while (static_cast<int>(set.size()) < kClosedSegments) {
    const size_t s = rng.NextBounded(num_segments);
    if (avoid.count(s) > 0 || !chosen.insert(s).second) continue;
    set.push_back(s);
  }
  return set;
}

// The stationary road-closure stream: at every barrier exactly
// kClosedSegments segments are closed (both directions) and the previous
// barrier's closures reopen at their original weights, so the grid keeps
// its long diameter for the whole run.
std::vector<std::vector<MutationEvent>> ClosureBatches(
    const gum::graph::EdgeList& list, uint64_t seed) {
  // RoadGrid emits each segment as (u, v, w), (v, u, w); keep one copy.
  std::vector<Edge> segments;
  for (const Edge& e : list.edges) {
    if (e.src < e.dst) segments.push_back(e);
  }
  GUM_CHECK(segments.size() > 3 * kClosedSegments) << "grid too small";

  gum::Rng rng(seed ^ kClosureSalt);
  std::vector<std::vector<size_t>> sets;
  for (int k = 0; k < kClosureSets; ++k) {
    std::unordered_set<size_t> avoid;
    if (k > 0) avoid.insert(sets[k - 1].begin(), sets[k - 1].end());
    // The last set also precedes the first when the stream cycles.
    if (k == kClosureSets - 1) avoid.insert(sets[0].begin(), sets[0].end());
    sets.push_back(DrawClosureSet(rng, segments.size(), avoid));
  }

  const auto add_segment = [&](std::vector<MutationEvent>* batch,
                               MutationKind kind, const Edge& e, int epoch) {
    batch->push_back(MutationEvent{kind, e.src, e.dst, epoch, e.weight});
    batch->push_back(MutationEvent{kind, e.dst, e.src, epoch, e.weight});
  };
  std::vector<std::vector<MutationEvent>> batches(kClosureSets + 1);
  for (size_t s : sets[0]) {
    add_segment(&batches[0], MutationKind::kDeleteEdge, segments[s], 1);
  }
  for (int k = 1; k <= kClosureSets; ++k) {
    for (size_t s : sets[k - 1]) {
      add_segment(&batches[k], MutationKind::kInsertEdge, segments[s], k + 1);
    }
    for (size_t s : sets[k % kClosureSets]) {
      add_segment(&batches[k], MutationKind::kDeleteEdge, segments[s], k + 1);
    }
  }
  return batches;
}

}  // namespace

uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

gum::Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w :
       {Workload::kSocialPr, Workload::kRoadSssp, Workload::kRoadAsync}) {
    if (name == WorkloadName(w)) return w;
  }
  return gum::Status::InvalidArgument(
      "unknown workload '" + name +
      "' (expected social-pr, road-sssp or road-async)");
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSocialPr:
      return "social-pr";
    case Workload::kRoadSssp:
      return "road-sssp";
    case Workload::kRoadAsync:
      return "road-async";
  }
  return "?";
}

std::span<const MutationEvent> Inputs::BatchForBarrier(int k) const {
  GUM_CHECK(k >= 1 && batches.size() > 1) << "no closure batch " << k;
  const size_t cycle = batches.size() - 1;
  const size_t idx = k == 1 ? 0 : 1 + (static_cast<size_t>(k) - 2) % cycle;
  return batches[idx];
}

uint64_t Inputs::Fingerprint() const {
  uint64_t h = kFnvOffset;
  h = Fnv1a(h, &edges.num_vertices, sizeof(edges.num_vertices));
  for (const Edge& e : edges.edges) {
    h = Fnv1a(h, &e.src, sizeof(e.src));
    h = Fnv1a(h, &e.dst, sizeof(e.dst));
    h = Fnv1a(h, &e.weight, sizeof(e.weight));
  }
  h = Fnv1a(h, sources.data(), sources.size() * sizeof(VertexId));
  for (const auto& batch : batches) {
    for (const MutationEvent& ev : batch) {
      const int kind = static_cast<int>(ev.kind);
      h = Fnv1a(h, &kind, sizeof(kind));
      h = Fnv1a(h, &ev.u, sizeof(ev.u));
      h = Fnv1a(h, &ev.v, sizeof(ev.v));
    }
  }
  return h;
}

Inputs GenerateInputs(Workload w, uint64_t seed) {
  Inputs in;
  if (w == Workload::kSocialPr) {
    in.edges = SocialGraph(seed);
    return in;
  }
  in.edges = RoadGraph(seed);
  gum::Rng rng(seed ^ kSourceSalt);
  in.sources.reserve(kSourcePool);
  for (size_t i = 0; i < kSourcePool; ++i) {
    in.sources.push_back(
        static_cast<VertexId>(rng.NextBounded(in.edges.num_vertices)));
  }
  if (w == Workload::kRoadSssp) in.batches = ClosureBatches(in.edges, seed);
  return in;
}

int HostThreads(Workload w) { return w == Workload::kSocialPr ? 2 : 1; }

gum::core::EngineOptions MakeEngineOptions(Workload w) {
  gum::core::EngineOptions options;
  options.num_host_threads = HostThreads(w);
  if (w == Workload::kRoadAsync) options.mode = gum::core::EngineMode::kAsync;
  return options;
}

Session::Session(Workload w, const Inputs& inputs, uint64_t seed) {
  gum::Stopwatch sw;
  gum::graph::CsrGraph g;
  {
    auto built = gum::graph::CsrGraph::FromEdgeList(inputs.edges);
    GUM_CHECK_OK(built.status());
    g = std::move(built).value();
  }
  times_.csr_ms = sw.ElapsedMillis();
  num_edges_ = g.num_edges();

  sw.Restart();
  gum::graph::PartitionOptions popt;
  popt.kind = w == Workload::kSocialPr ? gum::graph::PartitionerKind::kRandom
                                       : gum::graph::PartitionerKind::kMetisLike;
  popt.seed = GraphSeed(seed);
  gum::graph::Partition partition;
  {
    auto parts = gum::graph::PartitionGraph(g, kDevices, popt);
    GUM_CHECK_OK(parts.status());
    partition = std::move(parts).value();
  }
  times_.partition_ms = sw.ElapsedMillis();

  sw.Restart();
  {
    const gum::core::EngineOptions options = MakeEngineOptions(w);
    gum::sim::Topology topology = gum::sim::Topology::HybridCubeMesh8();
    if (w == Workload::kRoadSssp) {
      epoched_ = std::make_unique<gum::core::EpochedGraphContext>(
          std::move(g), std::move(partition), std::move(topology), options,
          /*symmetric=*/false);
    } else {
      graph_ = std::make_unique<gum::graph::CsrGraph>(std::move(g));
      ctx_ = std::make_unique<gum::core::GraphContext>(
          graph_.get(), std::move(partition), std::move(topology), options);
    }
  }
  times_.context_ms = sw.ElapsedMillis();
}

const gum::core::GraphContext& Session::context() const {
  return epoched_ != nullptr ? epoched_->ctx() : *ctx_;
}

const gum::graph::CsrGraph& Session::graph() const {
  return epoched_ != nullptr ? epoched_->graph() : *graph_;
}

}  // namespace perfbench
