// Per-query mutable engine state (DESIGN.md §13).
//
// RunContext<App> bundles everything GumEngine::Run mutates: the vertex
// values and frontier, the message store, the expand backend with its
// staging arenas and spare frontier arena, and the async driver's
// worklists, bundle heaps and message buffers. A fresh RunContext per run is
// exactly the pre-split engine (the legacy Run overload makes one); a
// long-lived RunContext reused across runs is the serving-mode fast path —
// every buffer keeps its high-water capacity, so steady-state queries
// against one GraphContext stop reallocating. Reuse never changes results:
// each Run re-derives all semantic state (values, frontier, store
// membership) from the app before the first superstep.
//
// The resident-bytes accessors feed the gum_frontier_arena_bytes /
// gum_staging_bytes gauges (serving-mode memory residency, DESIGN.md §10).

#ifndef GUM_CORE_RUN_CONTEXT_H_
#define GUM_CORE_RUN_CONTEXT_H_

#include <vector>

#include "core/async/async_scratch.h"
#include "core/expand/expand_backend.h"
#include "core/expand/frontier_scatter.h"
#include "core/message_store.h"
#include "core/vertex_state.h"

namespace gum::core {

template <typename App>
struct RunContext {
  using Value = typename App::Value;
  using Message = typename App::Message;

  // SoA vertex state: dense value array + fragment-major frontier arena.
  VertexState<Value> state;
  MessageStore<Message> store;
  FrontierScatterBackend<App> scatter_backend;
  ExpandCounters expand_counters;
  std::vector<double> apply_msgs;
  AsyncScratch<Message> async;

  // Resident bytes retained across queries (capacity, not live size).
  size_t FrontierArenaBytes() const {
    return state.frontier.ArenaBytes() + scatter_backend.NextFrontierBytes();
  }
  size_t StagingBytes() const { return scatter_backend.StagingBytes(); }
};

}  // namespace gum::core

#endif  // GUM_CORE_RUN_CONTEXT_H_
