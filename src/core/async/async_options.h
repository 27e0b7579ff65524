// Knobs for the asynchronous priority-driven engine mode (DESIGN.md §15).
//
// EngineMode selects between the classic BSP superstep loop (kBsp, the
// paper's engine) and the async worklist driver under src/core/async/
// (kAsync). AsyncConfig carries every async-only knob: the delta-stepping
// bucket width, the worklist flavor (plain buckets vs the stealing
// multi-queue "SMQ" family, or the Groute preset's sorted set), the SMQ
// steal_prob / steal_batch_size pair, the priority-range steal threshold,
// the segment flush timer, and the seed that makes an async run
// byte-reproducible (DESIGN.md §7: async relaxes bit-identity across
// thread counts to seed-determinism). The send route is
// EngineOptions::route, shared with the BSP loop.

#ifndef GUM_CORE_ASYNC_ASYNC_OPTIONS_H_
#define GUM_CORE_ASYNC_ASYNC_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace gum::core {

enum class EngineMode {
  kBsp,    // barriered supersteps (the default; byte-identical to pre-mode)
  kAsync,  // priority worklists + async message drain, no global barriers
};

const char* EngineModeName(EngineMode mode);
Result<EngineMode> ParseEngineMode(const std::string& name);

enum class AsyncWorklistKind {
  kBuckets,    // delta-stepping buckets, strictly lowest-bucket-first
  kSmq,        // stealing multi-queue: sampled min-heaps with batch stealing
  kSortedSet,  // every pending vertex at once, ascending id, no priorities
};

const char* AsyncWorklistKindName(AsyncWorklistKind kind);
Result<AsyncWorklistKind> ParseAsyncWorklistKind(const std::string& name);

struct AsyncConfig {
  // Bucket width for priority -> bucket mapping (also the SMQ histogram
  // granularity). <= 0 picks an app-aware default: 2x the average edge
  // weight for distance-priority apps, a residual-scaled width for
  // delta-PageRank (AsyncDefaultDelta hook).
  double delta = 0.0;

  AsyncWorklistKind worklist = AsyncWorklistKind::kBuckets;

  // --- SMQ knobs (the StealProb / stealBatchSize pair) ---
  double steal_prob = 0.5;       // chance a pop also rebalances two queues
  int steal_batch_size = 8;      // entries moved per intra-worklist steal

  // Seed behind every stochastic choice (SMQ queue sampling/stealing).
  // Fixing it makes the whole run byte-reproducible for any thread count;
  // changing it explores a different (still convergent) execution order.
  uint64_t seed = 1;

  // --- priority-range stealing (the async generalization of FSteal) ---
  // An idle device steals a contiguous span of its victim's highest
  // (coldest) buckets instead of a frontier fragment. Disabled spans are
  // simply never extracted; correctness never depends on stealing.
  bool enable_range_steal = true;
  // A victim must hold at least this many live entries to be robbed.
  int range_steal_min_victim = 512;

  // --- sends: a bundle walks the plane's route (EngineOptions::route) hop
  // by hop. A bundle under one 16 KiB router segment waits
  // flush_timeout_us * (1 - bytes / 16 KiB) at every hop; the default
  // timer of 0 never waits.
  double flush_timeout_us = 0.0;
};

// Strict range validation for user-provided knobs (the CLI rejects a bad
// value loudly before anything runs). delta == 0 means "auto"; every other
// knob must sit in its documented range.
Status ValidateAsyncConfig(const AsyncConfig& config);

}  // namespace gum::core

#endif  // GUM_CORE_ASYNC_ASYNC_OPTIONS_H_
