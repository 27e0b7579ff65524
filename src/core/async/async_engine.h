// Asynchronous priority-driven execution (EngineMode::kAsync, DESIGN.md §15).
//
// A discrete-event simulation over per-device clocks, driven by priority
// worklists and integrated with the engine's GraphContext / RunContext /
// CommPlane planes. It is the only per-device event loop in the tree: the
// Groute comparator is a preset of it (baselines/groute.h — sorted-set
// worklist, ring route, segment flush timer, no census, no range steal).
//
//   * each device owns a PriorityWorklist (delta-stepping buckets, the
//     stealing multi-queue or the sorted set, core/async/worklist.h) plus
//     a binary heap of in-flight message bundles ordered by arrival;
//   * the driver repeatedly serves the earliest-ready device: ingest
//     arrived bundles (Apply + push), pop the hottest bucket as one
//     micro-batch, relax it on the host ThreadPool (fixed-size chunks
//     merged in chunk order, so the result is independent of the thread
//     count), and send per-destination bundles hop by hop along the
//     CommPlane's route (EngineOptions::route) with charged serialization,
//     lane reservation, hop latency and segment flush wait — no global
//     barrier anywhere;
//   * an idle device first tries a *priority-range steal* — the async
//     generalization of FSteal: it extracts a contiguous span of its
//     victim's coldest buckets (worklist ExtractTail), paying the entry
//     transfer plus a re-bucket launch — and only then parks behind a
//     charged quiescence census probe. Global termination is the state
//     where every worklist and pending queue is empty; one final
//     confirming census is charged to every device.
//
// Every buffer the loop uses lives in RunContext::async
// (core/async/async_scratch.h): a run resets it, and a warm run on a
// reused context allocates nothing per micro-batch.
//
// Determinism contract (DESIGN.md §7, relaxed): the event loop is
// sequential and every stochastic choice (SMQ sampling) draws from a
// worklist-private seeded Rng, so a run is byte-reproducible for a fixed
// AsyncConfig::seed across every thread count. Monotone
// min-combine apps (BFS/SSSP/A*/WCC) converge to bitwise the reference
// fixpoint regardless of execution order; delta-PageRank converges to the
// epsilon fixpoint with FP sums ordered by the (deterministic) event
// order.
//
// Apps opt in by providing
//     double AsyncPriority(VertexId v, const Value& val) const;
// (lower = hotter; see algos/apps.h) and may override the automatic
// bucket width with
//     double AsyncDefaultDelta(VertexId num_vertices, double avg_weight);

#ifndef GUM_CORE_ASYNC_ASYNC_ENGINE_H_
#define GUM_CORE_ASYNC_ASYNC_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/async/async_options.h"
#include "core/async/async_scratch.h"
#include "core/async/worklist.h"
#include "core/engine_options.h"
#include "core/graph_context.h"
#include "core/run_context.h"
#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/frontier_features.h"
#include "graph/partition.h"
#include "sim/comm_plane.h"
#include "sim/device.h"
#include "sim/kernel_cost.h"
#include "sim/timeline.h"

namespace gum::core {

// Apps runnable under EngineMode::kAsync.
template <typename App>
concept AsyncCapable = requires(const App app, graph::VertexId v,
                                const typename App::Value& val) {
  { app.AsyncPriority(v, val) } -> std::convertible_to<double>;
};

// Optional app hook for the automatic bucket width.
template <typename App>
concept HasAsyncDefaultDelta = requires(const App app, graph::VertexId n,
                                        double w) {
  { app.AsyncDefaultDelta(n, w) } -> std::convertible_to<double>;
};

template <typename App>
  requires AsyncCapable<App>
class AsyncDriver {
 public:
  using VertexId = graph::VertexId;
  using Value = typename App::Value;
  using Message = typename App::Message;

  explicit AsyncDriver(const GraphContext* ctx) : ctx_(ctx) {}

  RunResult Run(App& app, RunContext<App>& rc,
                std::vector<Value>* values_out,
                const EngineOptions& options) {
    const graph::CsrGraph& g = ctx_->graph();
    const graph::Partition& partition = ctx_->partition();
    const AsyncConfig& cfg = options.async;
    const int n = partition.num_parts;
    const VertexId num_v = g.num_vertices();
    const sim::DeviceParams& dev = options.device;
    const double p_ns = dev.sync_per_peer_us * 1000.0;
    ThreadPool* pool = ctx_->pool();

    GUM_CHECK_OK(ValidateRunOptions(options, n, app.fixed_rounds() >= 0,
                                    /*async_capable_app=*/true));

    RunResult result;
    result.timeline = sim::Timeline(n);
    sim::CommPlane plane(ctx_->topology(), options.contention, options.route);

    auto& values = rc.state.values;
    values.resize(num_v);
    for (VertexId v = 0; v < num_v; ++v) values[v] = app.InitValue(v);

    // Resolve the bucket width: explicit knob, app hook, or 2x the average
    // edge weight (the delta-stepping folk heuristic near-far also uses).
    double delta = cfg.delta;
    if (delta <= 0.0) {
      const double avg_w = ctx_->average_edge_weight();
      if constexpr (HasAsyncDefaultDelta<App>) {
        delta = app.AsyncDefaultDelta(num_v, avg_w);
      } else {
        delta = 2.0 * avg_w;
      }
      if (delta <= 0.0) delta = 1.0;
    }
    result.async_delta = delta;

    // Per-device worklists, seeds split from the run seed, and the rest
    // of the run's state, reset in the context's buffers.
    using Scratch = AsyncScratch<Message>;
    using Bundle = typename Scratch::Bundle;
    using Outbox = typename Scratch::Outbox;
    Scratch& scratch = rc.async;
    scratch.Reset(n, num_v, cfg, delta);
    std::vector<PriorityWorklist>& wl = scratch.worklists;
    Bitmap& dirty = scratch.dirty;
    // A priority worklist re-queues a dirty vertex whose priority improved;
    // the sorted set already holds every dirty vertex.
    const bool repush_dirty = cfg.worklist != AsyncWorklistKind::kSortedSet;
    for (VertexId v = 0; v < num_v; ++v) {
      if (app.IsInitiallyActive(v)) {
        dirty.Set(v);
        wl[partition.owner[v]].Push(v, app.AsyncPriority(v, values[v]));
      }
    }

    // Per-device bundle heaps, keyed by arrival alone (Scratch::Bundle).
    std::vector<std::vector<Bundle>>& pending = scratch.pending;
    std::vector<Outbox>& outgoing = scratch.outgoing;

    std::vector<double>& clock_ms = scratch.clock_ms;
    std::vector<char>& parked = scratch.parked;
    const double census_ms = p_ns * n / 1e6;
    // Per-batch micro-kernel launch + bookkeeping charge (no barrier).
    constexpr double kBatchOverheadUs = 12.0;
    const double overhead_ms = kBatchOverheadUs / 1000.0;
    constexpr double kHopLatencyMs = 0.002;  // 2us per interconnect hop
    constexpr double kSegmentBytes = 16.0 * 1024;  // one router segment

    std::vector<WorklistEntry>& steal_buf = scratch.steal_buf;
    // The async FSteal: an idle thief takes a span of the largest
    // worklist's coldest buckets (ties: lowest victim id), aiming at
    // kRangeStealFraction of the victim's entries (whole buckets from the
    // high-priority tail downward), and pays the entry transfer victim ->
    // thief plus one re-bucket launch.
    constexpr double kRangeStealFraction = 0.5;
    auto try_range_steal = [&](int thief, double now) -> bool {
      if (!cfg.enable_range_steal) return false;
      int victim = -1;
      size_t best = 0;
      for (int i = 0; i < n; ++i) {
        if (i == thief) continue;
        if (wl[i].size() >= static_cast<size_t>(cfg.range_steal_min_victim) &&
            wl[i].size() > best) {
          best = wl[i].size();
          victim = i;
        }
      }
      if (victim < 0) return false;
      steal_buf.clear();
      const int got = wl[victim].ExtractTail(kRangeStealFraction, &steal_buf);
      if (got == 0) return false;
      // Each entry ships its vertex id + priority hint.
      const double bytes = static_cast<double>(got) *
                           (sim::kBytesPerMessage + 8.0);
      const double xfer_ms = plane.PointToPointNs(victim, thief, bytes) / 1e6;
      plane.RecordLinkTraffic(victim, thief, bytes);
      plane.RecordPayload(victim, thief, bytes);
      const double relaunch_ms = sim::kKernelLaunchUs / 1000.0;
      clock_ms[thief] =
          std::max(clock_ms[thief], now) + xfer_ms + relaunch_ms;
      for (const auto& entry : steal_buf) {
        wl[thief].Push(entry.vertex, entry.priority);
      }
      parked[thief] = 0;
      ++result.async_range_steals;
      result.async_range_steal_entries += got;
      result.async_range_steal_bytes += bytes;
      result.timeline.Add(0, thief, sim::TimeCategory::kCommunication,
                          xfer_ms);
      result.timeline.Add(0, thief, sim::TimeCategory::kOverhead,
                          relaunch_ms);
      return true;
    };
    // Idle transition: steal if possible, otherwise park behind one
    // charged census probe (a reduction over the group, Eq. 4's p).
    auto park = [&](int d, double now) {
      if (parked[d]) return;
      if (try_range_steal(d, now)) return;
      parked[d] = 1;
      ++result.quiescence_rounds;
      clock_ms[d] = std::max(clock_ms[d], now) + census_ms;
      result.timeline.Add(0, d, sim::TimeCategory::kOverhead, census_ms);
    };

    for (int d = 0; d < n; ++d) {
      if (wl[d].empty() && pending[d].empty()) park(d, 0.0);
    }

    // Batch-relax scratch, reused across batches. Chunks are fixed-size so
    // the chunk decomposition (and the serial merge order) never depends
    // on the thread count.
    constexpr size_t kChunk = 256;
    auto& chunks = scratch.chunks;
    std::vector<WorklistEntry>& batch = scratch.batch;
    std::vector<VertexId>& live = scratch.live;
    std::vector<double>& remote_edges = scratch.remote_edges;

    // Sends the messages in outgoing[to] as a bundle arriving at
    // `arrival_ms`, copied into a spare buffer of their size class.
    auto ship = [&](int to, double arrival_ms) {
      std::vector<Bundle>& heap = pending[to];
      Bundle& bundle = heap.emplace_back();
      bundle.arrival_ms = arrival_ms;
      bundle.messages = scratch.TakeBuffer(outgoing[to].size());
      bundle.messages.assign(outgoing[to].begin(), outgoing[to].end());
      std::push_heap(heap.begin(), heap.end(), std::greater<Bundle>());
    };

    // Worklist entries popped per batch, and the safety rail on batches.
    constexpr int kMaxBatch = 4096;
    constexpr long long kMaxBatches = 20'000'000;
    long long batches = 0;
    while (true) {
      // Earliest-ready device; ties break on the lowest id.
      int d = -1;
      double ready = std::numeric_limits<double>::infinity();
      for (int i = 0; i < n; ++i) {
        double r;
        if (!wl[i].empty()) {
          r = clock_ms[i];
        } else if (!pending[i].empty()) {
          r = std::max(clock_ms[i], pending[i].front().arrival_ms);
        } else {
          continue;
        }
        if (r < ready) {
          ready = r;
          d = i;
        }
      }
      if (d == -1) break;  // global quiescence: all worklists and wires empty
      ++batches;
      GUM_CHECK(batches <= kMaxBatches)
          << "async engine hit the batch limit before quiescence";

      const double t_start = ready;
      parked[d] = 0;
      std::vector<Bundle>& heap = pending[d];
      while (!heap.empty() && heap.front().arrival_ms <= t_start) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<Bundle>());
        Bundle& bundle = heap.back();
        for (const auto& [v, msg] : bundle.messages) {
          if (!app.Apply(v, values[v], msg)) continue;
          if (repush_dirty || !dirty.Test(v)) {
            wl[d].Push(v, app.AsyncPriority(v, values[v]));
          }
          dirty.Set(v);
        }
        scratch.ReturnBuffer(std::move(bundle.messages));
        heap.pop_back();
      }
      if (wl[d].empty()) {
        clock_ms[d] = t_start;  // bundles applied but nothing activated
        if (pending[d].empty()) park(d, t_start);
        continue;
      }

      // Pop the hottest bucket (SMQ: the sampled-best queue) and drop
      // entries superseded since they were pushed (lazy deletion).
      batch.clear();
      wl[d].Pop(wl[d].MinBucket(), kMaxBatch, &batch);
      live.clear();
      for (const auto& e : batch) {
        if (dirty.Test(e.vertex)) {
          dirty.Reset(e.vertex);
          live.push_back(e.vertex);
        } else {
          ++result.async_stale_skips;
        }
      }
      if (live.empty()) {
        clock_ms[d] = t_start;  // pure bookkeeping, no kernel launched
        if (wl[d].empty() && pending[d].empty()) park(d, t_start);
        continue;
      }

      // Relax the batch: OnFrontier + Scatter into per-destination
      // outboxes. A batch of several chunks stages them in parallel on the
      // pool and merges in chunk order; otherwise it relaxes straight into
      // the outboxes. Either way the messages land in batch order, so the
      // result is independent of the thread count.
      auto relax = [&](size_t begin, size_t end, std::vector<Outbox>& by_dev) {
        double relaxed_edges = 0.0;
        for (size_t i = begin; i < end; ++i) {
          const VertexId u = live[i];
          const uint32_t deg = g.OutDegree(u);
          const Message payload = app.OnFrontier(u, values[u], deg);
          const auto neighbors = g.OutNeighbors(u);
          const auto weights = g.OutWeights(u);
          for (size_t e = 0; e < neighbors.size(); ++e) {
            const VertexId v = neighbors[e];
            const float w_e = weights.empty() ? 1.0f : weights[e];
            std::optional<Message> msg = app.Scatter(payload, v, w_e);
            if (!msg.has_value()) continue;
            by_dev[partition.owner[v]].emplace_back(v, *msg);
          }
          relaxed_edges += deg;
        }
        return relaxed_edges;
      };
      for (auto& out : outgoing) out.clear();
      double edges = 0.0;
      const size_t num_chunks = (live.size() + kChunk - 1) / kChunk;
      if (pool != nullptr && num_chunks > 1) {
        chunks.resize(num_chunks);
        pool->ParallelFor(num_chunks, [&](size_t c) {
          auto& out = chunks[c];
          out.by_dev.resize(n);
          for (auto& box : out.by_dev) box.clear();
          const size_t begin = c * kChunk;
          out.edges = relax(begin, std::min(live.size(), begin + kChunk),
                            out.by_dev);
        });
        for (size_t c = 0; c < num_chunks; ++c) {
          edges += chunks[c].edges;
          for (int f = 0; f < n; ++f) {
            auto& src = chunks[c].by_dev[f];
            outgoing[f].insert(outgoing[f].end(), src.begin(), src.end());
          }
        }
      } else {
        edges = relax(0, live.size(), outgoing);
      }
      result.edges_processed += static_cast<uint64_t>(edges);

      // Charge the batch. Owned adjacency streams from local HBM; entries
      // acquired through a range steal expand their owner's adjacency over
      // the interconnect (remote work, charged per edge).
      const auto features = graph::ExtractFrontierFeatures(g, live);
      const double compute_ms =
          edges * sim::TrueEdgeCostNs(features, dev) / 1e6;
      std::fill(remote_edges.begin(), remote_edges.end(), 0.0);
      double local_edges = 0.0;
      for (const VertexId u : live) {
        const int owner = partition.owner[u];
        if (owner == d) {
          local_edges += g.OutDegree(u);
        } else {
          remote_edges[owner] += g.OutDegree(u);
        }
      }
      const double local_bytes = local_edges * sim::kBytesPerRemoteEdge;
      const double local_fetch_ms = plane.LaneMs(d, d, local_bytes);
      plane.ReserveLane(d, d, t_start, local_bytes);
      double remote_fetch_ms = 0.0;
      for (int o = 0; o < n; ++o) {
        if (o == d || remote_edges[o] == 0.0) continue;
        const double bytes = remote_edges[o] * sim::kBytesPerRemoteEdge;
        remote_fetch_ms += plane.PointToPointNs(o, d, bytes) / 1e6;
        plane.RecordLinkTraffic(o, d, bytes);
        plane.RecordPayload(o, d, bytes);
      }
      double t_end =
          t_start + overhead_ms + compute_ms + local_fetch_ms +
          remote_fetch_ms;

      // Local updates land at batch end; remote bundles walk the plane's
      // route: ReserveLane on the injection hop (FIFO per sender under
      // fair), pipelined traffic accounting on every forwarding hop.
      // Reserving a forwarding hop in send order would let a far-future
      // multi-hop arrival ratchet the lane horizon ahead of earlier
      // bundles. An under-filled router segment waits its pro-rata share
      // of the flush timer at every hop.
      double serial_ms = 0.0;
      double send_ms = 0.0;
      if (!outgoing[d].empty()) {
        result.messages_sent += outgoing[d].size();
        ship(d, t_end);
      }
      for (int f = 0; f < n; ++f) {
        if (f == d || outgoing[f].empty()) continue;
        result.messages_sent += outgoing[f].size();
        const double bytes =
            static_cast<double>(outgoing[f].size()) * sim::kBytesPerMessage;
        serial_ms += bytes / sim::kSerializationGbps / 1e6;
        const double flush_ms =
            cfg.flush_timeout_us *
            (1.0 - std::min(1.0, bytes / kSegmentBytes)) / 1000.0;
        double arrival = t_end + serial_ms;
        for (int at = d; at != f;) {
          const int next = plane.NextHop(d, at, f);
          if (at == d) {
            arrival = plane.ReserveLane(d, next, arrival, bytes);
            send_ms += plane.LaneMs(d, next, bytes);
          } else {
            plane.RecordLinkTraffic(at, next, bytes);
          }
          arrival += kHopLatencyMs + flush_ms + plane.LaneMs(at, next, bytes);
          at = next;
        }
        plane.RecordPayload(d, f, bytes);
        ship(f, arrival);
      }
      t_end += serial_ms + send_ms;
      clock_ms[d] = t_end;

      result.timeline.Add(0, d, sim::TimeCategory::kCompute, compute_ms);
      result.timeline.Add(0, d, sim::TimeCategory::kCommunication,
                          send_ms + local_fetch_ms + remote_fetch_ms);
      result.timeline.Add(0, d, sim::TimeCategory::kSerialization,
                          serial_ms);
      result.timeline.Add(0, d, sim::TimeCategory::kOverhead, overhead_ms);

      if (wl[d].empty() && pending[d].empty()) park(d, t_end);
      // A finished batch is a steal point for every idle peer.
      if (cfg.enable_range_steal) {
        for (int e = 0; e < n; ++e) {
          if (e == d || !wl[e].empty() || !pending[e].empty()) continue;
          try_range_steal(e, t_end);
        }
      }
    }

    // Final confirming census: every device joins one more reduction that
    // observes the all-empty state.
    ++result.quiescence_rounds;
    for (int i = 0; i < n; ++i) {
      clock_ms[i] += census_ms;
      result.timeline.Add(0, i, sim::TimeCategory::kOverhead, census_ms);
    }

    result.iterations = static_cast<int>(batches);
    result.async_batches = batches;
    result.total_ms = *std::max_element(clock_ms.begin(), clock_ms.end());
    result.async_bucket_histogram.assign(WorklistStats::kHistogramBuckets,
                                         0);
    for (const auto& w : wl) {
      const WorklistStats& ws = w.stats();
      for (int i = 0; i < WorklistStats::kHistogramBuckets; ++i) {
        result.async_bucket_histogram[i] += ws.bucket_histogram[i];
      }
      result.async_smq_rebalances +=
          static_cast<int64_t>(ws.smq_rebalances);
    }
    result.link_bytes = plane.link_bytes();
    result.payload_bytes = plane.payload_bytes();
    result.link_busy_ms = plane.link_busy_ms();
    if (values_out != nullptr) *values_out = std::move(values);
    return result;
  }

 private:
  const GraphContext* ctx_;
};

}  // namespace gum::core

#endif  // GUM_CORE_ASYNC_ASYNC_ENGINE_H_
