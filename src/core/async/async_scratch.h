// The async driver's per-run buffers (DESIGN.md §15).
//
// RunContext keeps one AsyncScratch, and AsyncDriver::Run resets it
// instead of building its state afresh, so every buffer keeps its
// high-water capacity across runs. Each destination's outbox keeps its
// buffer: a batch's relax fills it, and sending copies the messages into a
// bundle buffer taken from the spares of their size class (capacity 2^k,
// the smallest that holds them); ingesting the bundle returns its buffer
// to that class. Size classes keep each buffer near the size of what it
// carries, so a class's spares stop growing once they cover the most
// bundles of that class ever in flight at once: after one warm-up run per
// source, a run allocates nothing per micro-batch. (Swapping the full
// outbox into the bundle instead leaves large buffers locked in small
// in-flight bundles, and the buffers keep growing for tens of queries.)

#ifndef GUM_CORE_ASYNC_ASYNC_SCRATCH_H_
#define GUM_CORE_ASYNC_ASYNC_SCRATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/random.h"
#include "core/async/async_options.h"
#include "core/async/worklist.h"
#include "graph/types.h"

namespace gum::core {

template <typename Message>
struct AsyncScratch {
  using Outbox = std::vector<std::pair<graph::VertexId, Message>>;

  // An in-flight bundle. The per-device heaps order bundles by arrival
  // alone, through the std::push_heap / std::pop_heap calls that
  // std::priority_queue makes, so simultaneous arrivals are applied in
  // that heap's sift order, fixed by the event sequence (DESIGN.md §7).
  struct Bundle {
    double arrival_ms = 0.0;
    Outbox messages;
    bool operator>(const Bundle& other) const {
      return arrival_ms > other.arrival_ms;
    }
  };
  // One relax chunk's per-destination messages and relaxed edges.
  struct ChunkOut {
    std::vector<Outbox> by_dev;
    double edges = 0.0;
  };

  // An SMQ worklist keeps this many internal queues.
  static constexpr int kSmqQueues = 4;

  std::vector<PriorityWorklist> worklists;  // one per device
  std::vector<std::vector<Bundle>> pending;  // per-device min-heap
  // Empty bundle buffers by size class: spares[k] holds capacity >= 2^k.
  std::vector<std::vector<Outbox>> spares;
  std::vector<Outbox> outgoing;              // per-destination outboxes
  std::vector<ChunkOut> chunks;
  std::vector<WorklistEntry> batch;
  std::vector<WorklistEntry> steal_buf;
  std::vector<graph::VertexId> live;
  Bitmap dirty;
  std::vector<double> clock_ms;
  std::vector<double> remote_edges;
  std::vector<char> parked;

  // An empty buffer that holds `size` > 0 messages: a spare of the
  // smallest class that does, else a new buffer of that class.
  Outbox TakeBuffer(size_t size) {
    const size_t k = std::bit_width(size - 1);
    if (k < spares.size() && !spares[k].empty()) {
      Outbox buffer = std::move(spares[k].back());
      spares[k].pop_back();
      return buffer;
    }
    Outbox buffer;
    buffer.reserve(size_t{1} << k);
    return buffer;
  }

  // Returns a drained bundle's buffer to the spares of its class.
  void ReturnBuffer(Outbox buffer) {
    buffer.clear();
    const size_t k = std::bit_width(buffer.capacity()) - 1;
    if (k >= spares.size()) spares.resize(k + 1);
    spares[k].push_back(std::move(buffer));
  }

  // The state a run over n devices and num_v vertices starts from: empty
  // heaps, outboxes and dirty bits, zeroed clocks, and worklists as
  // constructed with seeds split from config.seed.
  void Reset(int n, graph::VertexId num_v, const AsyncConfig& config,
             double delta) {
    if (worklists.size() > static_cast<size_t>(n)) {
      worklists.erase(worklists.begin() + n, worklists.end());
    }
    uint64_t seed_state = config.seed;
    for (int d = 0; d < n; ++d) {
      const uint64_t seed = SplitMix64(seed_state);
      if (static_cast<size_t>(d) < worklists.size()) {
        worklists[d].Reset(config.worklist, delta, kSmqQueues,
                           config.steal_prob, config.steal_batch_size, seed);
      } else {
        worklists.emplace_back(config.worklist, delta, kSmqQueues,
                               config.steal_prob, config.steal_batch_size,
                               seed);
      }
    }
    for (auto& heap : pending) heap.clear();
    pending.resize(n);
    for (auto& box : outgoing) box.clear();
    outgoing.resize(n);
    dirty.Resize(num_v);
    clock_ms.assign(n, 0.0);
    remote_edges.assign(n, 0.0);
    parked.assign(n, 0);
  }
};

}  // namespace gum::core

#endif  // GUM_CORE_ASYNC_ASYNC_SCRATCH_H_
