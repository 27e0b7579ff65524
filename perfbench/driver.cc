// Session benchmark driver (see perfbench/README.md).
//
// One process, one client, one query in flight: a closed loop of queries
// against one GraphContext, timed on the host clock around the public
// calls (CsrGraph::FromEdgeList, PartitionGraph, the context constructors,
// EpochedGraphContext::AdvanceEpoch, GumEngine::Rebind, GumEngine::Run),
// with every query's RunResult read for the simulated clock and every
// query's values checked against algos/reference outside the timed window.
// Every host time is scaled by the speed probe run next to it
// (speed_probe.h); the unscaled times go to the detail line.
//
//   perfbench_driver --workload=road-sssp --seed=3 --seconds=20 --trace=0
//
// --trace=1 records every other block of four queries in its own
// obs::TraceSession and reports per-layer self times (span_profile.h).
// --queries=N replaces the time bound with a fixed query count (the
// self-check). The last stdout line is one JSON object with every metric
// the run computed; perfbench/run.py turns it into the benchmark result.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/apps.h"
#include "algos/reference.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "span_profile.h"
#include "speed_probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gum::Stopwatch;
using gum::core::RunResult;

constexpr int kSetupReps = 7;
// Floor on timed queries, so at least ten samples lie beyond the p90.
constexpr int kMinQueries = 100;
// Untraced host-time slots reserved up front, so the vectors never
// reallocate and copy during the window.
constexpr size_t kReservedQueries = size_t{1} << 16;
constexpr int kTailMinBeyond = 10;
// After each query and each set-up the speed probe runs for at least this
// share of its host time. A query is scaled by the median of the last
// kProbeWindow probes: about a second of social-pr, tens of ms of
// road-async.
constexpr double kProbeShare = 0.1;
constexpr size_t kProbeWindow = 8;
// Warm-up ends once the RunContext arenas have not grown for kWarmupStable
// queries in a row (at least kWarmupMin, at most kWarmupMax queries).
constexpr int kWarmupMin = 3;
constexpr int kWarmupStable = 3;
constexpr int kWarmupMax = 40;
// Warm-up queries draw sources from the back half of the pool.
constexpr size_t kWarmupSourceOffset = 128;
constexpr double kPageRankTolerance = 1e-9;  // tests/engine_test.cc

struct Config {
  Workload workload = Workload::kSocialPr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int queries = 0;  // > 0: fixed query count instead of the time bound
  std::string trace_out;
};

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile and how many samples lie strictly above its rank.
struct Tail {
  double value = 0.0;
  size_t beyond = 0;
};
Tail Percentile(std::vector<double> v, double q) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::max<size_t>(rank, 1) - 1;
  t.value = v[idx];
  t.beyond = v.size() - idx - 1;
  return t;
}

// --- the closed loop ------------------------------------------------------

// RunResult's scalars for one query, or summed over several. The timeline
// is summed here, so a long run does not hold every query's bucket matrix.
struct Counts {
  double sim_ms = 0.0;  // makespan, plus the epoch barrier's charged apply
  double compute_ms = 0.0;
  double comm_ms = 0.0;
  double serialization_ms = 0.0;
  double overhead_ms = 0.0;
  double iterations = 0.0;
  double edges = 0.0;
  double messages = 0.0;
  double osteal_evaluations = 0.0;
  double osteal_shrinks = 0.0;
  double osteal_lp_iterations = 0.0;
  double osteal_milp_nodes = 0.0;
  double fsteal_applied = 0.0;
  double fsteal_lp_iterations = 0.0;
  double async_batches = 0.0;
  double async_stale_skips = 0.0;
  double async_range_steals = 0.0;
  double quiescence_rounds = 0.0;

  Counts& operator+=(const Counts& o) {
    sim_ms += o.sim_ms;
    compute_ms += o.compute_ms;
    comm_ms += o.comm_ms;
    serialization_ms += o.serialization_ms;
    overhead_ms += o.overhead_ms;
    iterations += o.iterations;
    edges += o.edges;
    messages += o.messages;
    osteal_evaluations += o.osteal_evaluations;
    osteal_shrinks += o.osteal_shrinks;
    osteal_lp_iterations += o.osteal_lp_iterations;
    osteal_milp_nodes += o.osteal_milp_nodes;
    fsteal_applied += o.fsteal_applied;
    fsteal_lp_iterations += o.fsteal_lp_iterations;
    async_batches += o.async_batches;
    async_stale_skips += o.async_stale_skips;
    async_range_steals += o.async_range_steals;
    quiescence_rounds += o.quiescence_rounds;
    return *this;
  }
};

Counts Summarize(const RunResult& r) {
  Counts c;
  c.sim_ms = r.total_ms;
  c.compute_ms = r.ComputeMs();
  c.comm_ms = r.CommunicationMs();
  c.serialization_ms = r.SerializationMs();
  c.overhead_ms = r.OverheadMs();
  c.iterations = r.iterations;
  c.edges = static_cast<double>(r.edges_processed);
  c.messages = static_cast<double>(r.messages_sent);
  for (const auto& it : r.iteration_stats) {
    c.osteal_evaluations += it.osteal_evaluated ? 1 : 0;
  }
  c.osteal_shrinks = r.osteal_shrink_events;
  c.osteal_lp_iterations = static_cast<double>(r.osteal_lp_iterations_total);
  c.osteal_milp_nodes = static_cast<double>(r.osteal_milp_nodes_total);
  c.fsteal_applied = r.fsteal_applied_iterations;
  c.fsteal_lp_iterations = static_cast<double>(r.fsteal_lp_iterations_total);
  c.async_batches = static_cast<double>(r.async_batches);
  c.async_stale_skips = static_cast<double>(r.async_stale_skips);
  c.async_range_steals = static_cast<double>(r.async_range_steals);
  c.quiescence_rounds = r.quiescence_rounds;
  return c;
}

// Simulated-clock and count metrics cover the first PrefixQueries timed
// queries, so they are a pure function of the seed: one pass over the
// source pool on the SSSP workloads, kMinQueries for PageRank, whose
// queries all run the same job.
int PrefixQueries(const Inputs& inputs) {
  return inputs.sources.empty() ? kMinQueries
                                : static_cast<int>(inputs.sources.size());
}

// What the timed window keeps. Past the fixed prefix an untraced query
// costs three doubles in pre-reserved vectors, so peak RSS barely depends
// on the number of queries a faster machine fits into the window.
struct LoopResult {
  // Host time per query: epoch barrier (if any) + Run, scaled.
  std::vector<double> untraced_ms;
  std::vector<double> untraced_raw_ms;  // the same, unscaled
  std::vector<double> traced_ms;        // scaled
  std::vector<double> probe_ms;         // one probe per query
  Counts prefix;  // summed over the first prefix_queries queries
  int prefix_queries = 0;
  int prefix_epochs = 0;
  double prefix_effective = 0.0;  // effective events at those epochs
  std::vector<QueryProfile> profiles;  // traced queries, scaled
  double traced_iterations = 0.0;
  double traced_batches = 0.0;
  int queries = 0;
  int epochs = 0;
  double advance_ms = 0.0;  // scaled, summed over every epoch barrier
  double rebind_ms = 0.0;
  int warmup = 0;
  size_t arena_bytes = 0;
  // Timed window wall, reference checks and probes excluded.
  double window_s = 0.0;  // scaled
  double raw_window_s = 0.0;
  int failed = 0;
};

bool TracedQuery(const Config& cfg, int i) {
  return cfg.trace && (i / kEpochEvery) % 2 == 1;
}

void WriteProfiles(const Config& cfg, const LoopResult& loop) {
  const std::string stem = cfg.trace_out + "/" +
                           WorkloadName(cfg.workload) + "-seed" +
                           std::to_string(cfg.seed);
  std::ofstream out(stem + ".profile.json");
  gum::JsonWriter w(out, 1);
  w.BeginObject();
  w.Key("workload").Value(WorkloadName(cfg.workload));
  w.Key("seed").Value(static_cast<int64_t>(cfg.seed));
  w.Key("queries").BeginArray();
  for (const QueryProfile& p : loop.profiles) {
    w.BeginObject();
    w.Key("query").Value(p.query);
    w.Key("run_ms").Value(p.run_ms);
    w.Key("unspanned_ms").Value(p.unspanned_ms);
    w.Key("solves").Value(p.solves);
    w.Key("pool_busy_ms").Value(p.pool_busy_ms);
    w.Key("self_ms").BeginObject();
    for (const auto& [name, ms] : p.self_ms) w.Key(name).Value(ms);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

// The closed loop: warm-up, then timed queries until the window ends.
template <typename App, typename MakeApp, typename Check>
LoopResult RunLoop(const Config& cfg, const Inputs& inputs, Session& session,
                   SpeedProbe& probe, MakeApp make_app, Check check) {
  LoopResult out;
  gum::core::GumEngine<App> engine(&session.context());
  gum::core::RunContext<App> rc;
  std::vector<typename App::Value> values;

  size_t arena = 0;
  int stable = 0;
  while (out.warmup < kWarmupMax &&
         (out.warmup < kWarmupMin || stable < kWarmupStable)) {
    App app = make_app(kWarmupSourceOffset + out.warmup++);
    engine.Run(app, rc, &values);
    const size_t bytes = rc.FrontierArenaBytes() + rc.StagingBytes();
    stable = bytes > arena ? 0 : stable + 1;
    arena = std::max(arena, bytes);
  }
  out.arena_bytes = arena;

  const int prefix_len = PrefixQueries(inputs);
  const int min_queries = std::max(kMinQueries, prefix_len);
  gum::core::EpochedGraphContext* epoched = session.epoched();
  out.untraced_ms.reserve(kReservedQueries);
  out.untraced_raw_ms.reserve(kReservedQueries);
  out.probe_ms.reserve(kReservedQueries);
  std::deque<double> recent_probes;
  for (int i = 0;; ++i) {
    if (cfg.queries > 0 ? i >= cfg.queries
                        : i >= min_queries && out.raw_window_s >= cfg.seconds) {
      break;
    }
    Stopwatch active;
    const bool traced = TracedQuery(cfg, i);
    std::optional<gum::obs::TraceSession> trace;
    if (traced) {
      trace.emplace();
      trace->Start();
    }
    App app = make_app(static_cast<size_t>(i));
    RunResult result;
    bool epoch = false;
    int effective = 0;
    double epoch_sim_ms = 0.0;
    double advance_ms = 0.0;
    double rebind_ms = 0.0;
    Stopwatch query;
    {
      GUM_TRACE_SCOPE("bench.query");
      if (epoched != nullptr && i > 0 && i % kEpochEvery == 0) {
        epoch = true;
        ++out.epochs;
        Stopwatch sw;
        gum::core::EpochAdvanceStats adv;
        {
          GUM_TRACE_SCOPE("bench.epoch_advance");
          adv = epoched->AdvanceEpoch(inputs.BatchForBarrier(out.epochs),
                                      kCompactEvery);
        }
        advance_ms = sw.ElapsedMillis();
        sw.Restart();
        {
          GUM_TRACE_SCOPE("bench.rebind");
          engine.Rebind(&epoched->ctx());
        }
        rebind_ms = sw.ElapsedMillis();
        effective = static_cast<int>(adv.effective.size());
        epoch_sim_ms = adv.apply_ms + adv.compact_ms;
      }
      GUM_TRACE_SCOPE("bench.run");
      result = engine.Run(app, rc, &values);
    }
    const double query_ms = query.ElapsedMillis();
    const double active_ms = active.ElapsedMillis();

    // Outside the window: reference check, trace export, speed probe.
    {
      GUM_TRACE_SCOPE("bench.ref_check");
      if (!check(app, session, values)) ++out.failed;
    }
    Counts counts = Summarize(result);
    counts.sim_ms += epoch_sim_ms;
    if (i < prefix_len) {
      out.prefix += counts;
      ++out.prefix_queries;
      if (epoch) {
        ++out.prefix_epochs;
        out.prefix_effective += effective;
      }
    }
    std::optional<QueryProfile> profile;
    if (traced) {
      trace->Stop();
      auto p = ProfileSession(*trace, i);
      GUM_CHECK_OK(p.status());
      profile = std::move(p).value();
      out.traced_iterations += counts.iterations;
      out.traced_batches += counts.async_batches;
    }
    out.probe_ms.push_back(probe.Measure(kProbeShare * query_ms));
    recent_probes.push_back(out.probe_ms.back());
    if (recent_probes.size() > kProbeWindow) recent_probes.pop_front();
    const double factor = SpeedFactor(
        Median({recent_probes.begin(), recent_probes.end()}));

    out.raw_window_s += active_ms / 1e3;
    out.window_s += active_ms * factor / 1e3;
    out.advance_ms += advance_ms * factor;
    out.rebind_ms += rebind_ms * factor;
    if (traced) {
      out.traced_ms.push_back(query_ms * factor);
      profile->Scale(factor);
      out.profiles.push_back(std::move(*profile));
    } else {
      out.untraced_ms.push_back(query_ms * factor);
      out.untraced_raw_ms.push_back(query_ms);
    }
    ++out.queries;
  }
  if (!cfg.trace_out.empty() && !out.profiles.empty()) {
    WriteProfiles(cfg, out);
  }
  return out;
}

LoopResult RunWorkload(const Config& cfg, const Inputs& inputs,
                       Session& session, SpeedProbe& probe) {
  if (cfg.workload == Workload::kSocialPr) {
    const auto& g = session.graph();
    const std::vector<double> expected =
        gum::algos::ref::PageRank(g, 0.85, kPageRankRounds);
    return RunLoop<gum::algos::PageRankApp>(
        cfg, inputs, session, probe,
        [&g](size_t) {
          gum::algos::PageRankApp app;
          app.num_vertices = g.num_vertices();
          app.rounds = kPageRankRounds;
          return app;
        },
        [&expected](const gum::algos::PageRankApp&, const Session&,
                    const std::vector<double>& values) {
          if (values.size() != expected.size()) return false;
          for (size_t v = 0; v < values.size(); ++v) {
            if (!(std::abs(values[v] - expected[v]) <= kPageRankTolerance)) {
              return false;
            }
          }
          return true;
        });
  }
  // Exact match, compared as a digest of the float bytes: the reference
  // runs once per source per epoch, on the current epoch's graph.
  const auto digest = [](const std::vector<float>& v) {
    return Fnv1a(kFnvOffset, v.data(), v.size() * sizeof(float));
  };
  std::map<gum::graph::VertexId, uint64_t> expected;
  int expected_epoch = 0;
  return RunLoop<gum::algos::SsspApp>(
      cfg, inputs, session, probe,
      [&inputs](size_t i) {
        gum::algos::SsspApp app;
        app.source = inputs.sources[i % inputs.sources.size()];
        return app;
      },
      [&](const gum::algos::SsspApp& app, const Session& s,
          const std::vector<float>& values) {
        if (s.epoch() != expected_epoch) {
          expected.clear();
          expected_epoch = s.epoch();
        }
        const auto [it, fresh] = expected.try_emplace(app.source, 0);
        if (fresh) it->second = digest(gum::algos::ref::Sssp(s.graph(), app.source));
        return digest(values) == it->second;
      });
}

// --- the run --------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Run(const Config& cfg, int pinned_cpus) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const Inputs inputs = GenerateInputs(cfg.workload, cfg.seed);
  std::ostringstream fp;
  fp << std::hex << std::setw(16) << std::setfill('0')
     << inputs.Fingerprint();
  std::cout << "perfbench " << WorkloadName(cfg.workload) << " seed "
            << cfg.seed << " inputs " << fp.str() << ": "
            << inputs.edges.num_vertices << " vertices, "
            << inputs.edges.edges.size() << " edges, " << kDevices
            << " vGPUs, host threads " << HostThreads(cfg.workload)
            << ", pinned CPUs " << pinned_cpus << ", nproc " << nproc << ", "
            << PERFBENCH_BUILD_TYPE << ", " << CompilerName() << "\n";

  // --- set-up, repeated; the last session serves the queries ---
  SpeedProbe probe(HostThreads(cfg.workload));
  std::vector<double> setup_s, setup_raw_s, csr_ms, partition_ms, context_ms;
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    session = std::make_unique<Session>(cfg.workload, inputs, cfg.seed);
    const SetupTimes& t = session->times();
    const double factor =
        SpeedFactor(probe.Measure(kProbeShare * t.TotalSeconds() * 1e3));
    setup_raw_s.push_back(t.TotalSeconds());
    setup_s.push_back(t.TotalSeconds() * factor);
    csr_ms.push_back(t.csr_ms * factor);
    partition_ms.push_back(t.partition_ms * factor);
    context_ms.push_back(t.context_ms * factor);
  }

  const LoopResult loop = RunWorkload(cfg, inputs, *session, probe);
  const int n = loop.queries;
  const std::vector<double>& untraced_ms = loop.untraced_ms;
  const std::vector<double>& traced_ms = loop.traced_ms;

  std::map<std::string, double> m;
  std::vector<std::string> missing;
  // A per-unit metric. A zero denominator means the layer never ran on
  // this workload: the metric reads as a layer that did no work (0, or 1
  // for the useful share of re-solves) and is listed under "idle", so a
  // change that makes the layer run reads as added cost, never as a gain.
  std::vector<std::string> idle;
  const auto ratio = [&](const std::string& name, double total,
                         double count, double idle_value = 0.0) {
    if (count > 0) {
      m[name] = total / count;
    } else {
      m[name] = idle_value;
      idle.push_back(name);
    }
  };

  // --- end-to-end metrics (untraced queries only) ---
  m["setup_s"] = Median(setup_s);
  ratio("queries_per_s", n, loop.window_s);
  m["query_ms_p50"] = Median(untraced_ms);
  const Tail p90 = Percentile(untraced_ms, 0.9);
  if (p90.beyond >= kTailMinBeyond) {
    m["query_ms_p90"] = p90.value;
  } else {
    missing.push_back("query_ms_p90");
  }
  m["peak_rss_mb"] = PeakRssMb();
  ratio("failed_frac", loop.failed, n);

  // --- per-layer metrics ---
  m["graph.csr_build_ms"] = Median(csr_ms);
  m["graph.csr_edges_per_s"] =
      static_cast<double>(session->num_edges()) / (Median(csr_ms) / 1e3);
  m["graph.partition_ms"] = Median(partition_ms);
  m["core.context_build_ms"] = Median(context_ms);

  // Simulated clock and counts over the deterministic prefix.
  const Counts& sum = loop.prefix;
  const double prefix = loop.prefix_queries;
  ratio("sim_ms_per_query", sum.sim_ms, prefix);
  ratio("core.supersteps", sum.iterations, prefix);
  ratio("core.edges_per_query", sum.edges, prefix);
  ratio("core.messages_per_query", sum.messages, prefix);
  ratio("sim.compute_ms", sum.compute_ms, prefix);
  ratio("sim.comm_ms", sum.comm_ms, prefix);
  ratio("sim.serialization_ms", sum.serialization_ms, prefix);
  ratio("sim.overhead_ms", sum.overhead_ms, prefix);
  ratio("osteal.evaluations_per_query", sum.osteal_evaluations, prefix);
  ratio("osteal.shrink_ratio", sum.osteal_shrinks, sum.osteal_evaluations,
        1.0);
  ratio("osteal.lp_iterations", sum.osteal_lp_iterations, prefix);
  ratio("osteal.milp_nodes", sum.osteal_milp_nodes, prefix);
  ratio("fsteal.applied_ratio", sum.fsteal_applied, sum.iterations);
  ratio("fsteal.lp_iterations", sum.fsteal_lp_iterations, prefix);
  ratio("async.batches_per_query", sum.async_batches, prefix);
  ratio("async.stale_skips_per_batch", sum.async_stale_skips,
        sum.async_batches);
  ratio("async.range_steals_per_query", sum.async_range_steals, prefix);
  ratio("async.quiescence_rounds_per_query", sum.quiescence_rounds, prefix);
  ratio("mutation.effective_events", loop.prefix_effective,
        loop.prefix_epochs);

  // Host time of the epoch barriers, every epoch of the window.
  ratio("mutation.advance_ms", loop.advance_ms, loop.epochs);
  ratio("mutation.rebind_ms", loop.rebind_ms, loop.epochs);

  // Host self times from the traced queries.
  std::map<std::string, int> span_counts;
  if (cfg.trace) {
    double run_ms = 0, unspanned = 0, pool_busy = 0, parallel = 0,
           prefix_traced = 0, solves = 0, solve_ms = 0, all_solves = 0;
    std::map<std::string, double> phase_ms;
    for (const QueryProfile& p : loop.profiles) {
      run_ms += p.run_ms;
      unspanned += p.unspanned_ms;
      pool_busy += p.pool_busy_ms;
      parallel += p.parallel_ms;
      all_solves += p.solves;
      solve_ms += p.solve_ms;
      if (p.query < PrefixQueries(inputs)) {
        ++prefix_traced;
        solves += p.solves;
      }
      for (const char* phase : kPhaseLayers) {
        const auto it = p.self_ms.find(phase);
        phase_ms[phase] += it != p.self_ms.end() ? it->second : 0.0;
      }
      for (const auto& [name, count] : p.span_counts) {
        span_counts[name] += count;
      }
    }
    const double traced = static_cast<double>(loop.profiles.size());
    ratio("core.run_ms", run_ms, traced);
    ratio("core.unspanned_ms", unspanned, traced);
    ratio("core.us_per_superstep", run_ms * 1e3, loop.traced_iterations);
    for (const char* phase : kPhaseLayers) {
      ratio(std::string(phase) + "_ms", phase_ms[phase], traced);
    }
    ratio("solver.solves_per_query", solves, prefix_traced);
    ratio("solver.solve_us", solve_ms * 1e3, all_solves);
    ratio("pool.busy_ms", pool_busy, traced);
    ratio("pool.parallel_frac", parallel, run_ms);
    ratio("async.us_per_batch", run_ms * 1e3, loop.traced_batches);
    if (!traced_ms.empty() && !untraced_ms.empty()) {
      m["obs.trace_overhead_frac"] =
          Median(traced_ms) / Median(untraced_ms) - 1.0;
    } else {
      missing.push_back("obs.trace_overhead_frac");
    }
  }

  // Unscaled host times, for the detail line only.
  const double raw_p50 = Median(loop.untraced_raw_ms);
  const double probe_p50 = Median(loop.probe_ms);

  // --- human-readable report, every timing with its sample count ---
  std::cout << std::setprecision(6) << "setup: " << m["setup_s"]
            << " s median of " << kSetupReps << " (csr "
            << m["graph.csr_build_ms"] << " ms, partition "
            << m["graph.partition_ms"] << " ms, context "
            << m["core.context_build_ms"] << " ms; unscaled "
            << Median(setup_raw_s) << " s)\n"
            << "warm-up: " << loop.warmup << " queries, arenas "
            << loop.arena_bytes << " B\n"
            << "window: " << n << " queries in " << loop.raw_window_s
            << " s (" << untraced_ms.size() << " untraced, "
            << traced_ms.size() << " traced, " << loop.epochs
            << " epochs), " << loop.failed
            << " failed the reference check\n"
            << "speed probe: median " << probe_p50 << " ms (n="
            << loop.probe_ms.size() << "), reference " << kReferenceProbeMs
            << " ms\n"
            << "query_ms: p50 " << m["query_ms_p50"] << " (n="
            << untraced_ms.size() << "; unscaled " << raw_p50 << "), p90 ";
  if (p90.beyond >= kTailMinBeyond) {
    std::cout << p90.value << " (" << p90.beyond << " beyond)\n";
  } else {
    std::cout << "missing (" << p90.beyond << " beyond, need "
              << kTailMinBeyond << ")\n";
  }
  std::cout << "sim_ms_per_query: " << m["sim_ms_per_query"] << " (first "
            << loop.prefix_queries << " queries)\n";

  // --- machine-readable detail: the last line ---
  std::ostringstream line;
  gum::JsonWriter w(line);
  w.BeginObject();
  w.Key("workload").Value(WorkloadName(cfg.workload));
  w.Key("seed").Value(static_cast<int64_t>(cfg.seed));
  w.Key("inputs").Value(fp.str());
  w.Key("env").BeginObject();
  w.Key("nproc").Value(static_cast<int64_t>(nproc));
  w.Key("host_threads").Value(HostThreads(cfg.workload));
  w.Key("pinned_cpus").Value(pinned_cpus);
  w.Key("devices").Value(kDevices);
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("compiler").Value(CompilerName());
  w.EndObject();
  w.Key("attempted").Value(n);
  w.Key("failed").Value(loop.failed);
  w.Key("samples").BeginObject();
  w.Key("setup_reps").Value(kSetupReps);
  w.Key("warmup").Value(loop.warmup);
  w.Key("untraced_queries").Value(static_cast<int64_t>(untraced_ms.size()));
  w.Key("traced_queries").Value(static_cast<int64_t>(traced_ms.size()));
  w.Key("p90_beyond").Value(static_cast<int64_t>(p90.beyond));
  w.Key("prefix").Value(loop.prefix_queries);
  w.Key("epochs").Value(loop.epochs);
  w.Key("probes").Value(static_cast<int64_t>(loop.probe_ms.size()));
  w.EndObject();
  w.Key("unscaled").BeginObject();
  w.Key("probe_ms").Value(probe_p50);
  w.Key("setup_s").Value(Median(setup_raw_s));
  w.Key("queries_per_s").Value(n / loop.raw_window_s);
  w.Key("query_ms_p50").Value(raw_p50);
  w.Key("query_ms_p90").Value(Percentile(loop.untraced_raw_ms, 0.9).value);
  w.EndObject();
  w.Key("missing").BeginArray();
  for (const std::string& name : missing) w.Value(name);
  w.EndArray();
  w.Key("idle").BeginArray();
  for (const std::string& name : idle) w.Value(name);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& [name, value] : m) w.Key(name).Value(value);
  w.EndObject();
  w.Key("spans").BeginObject();
  for (const auto& [name, count] : span_counts) w.Key(name).Value(count);
  w.EndObject();
  w.EndObject();
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const gum::FlagParser flags(argc, argv);
  if (gum::Status s = flags.KnownFlagsOnly(
          {"workload", "seed", "seconds", "trace", "queries", "trace-out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 2;
  }
  auto workload = perfbench::ParseWorkload(flags.GetString("workload", ""));
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 2;
  }
  perfbench::Config cfg;
  cfg.workload = workload.value();
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.seconds = flags.GetDouble("seconds", 10.0);
  cfg.trace = flags.GetInt("trace", 0) != 0;
  cfg.queries = static_cast<int>(flags.GetInt("queries", 0));
  cfg.trace_out = flags.GetString("trace-out", "");
  if (cfg.seconds <= 0 || cfg.queries < 0) {
    std::cerr << "--seconds must be > 0 and --queries >= 0\n";
    return 2;
  }
  if (!cfg.trace_out.empty()) {
    std::filesystem::create_directories(cfg.trace_out);
  }
  // Before any thread starts, so the engine's pool and the probe's helper
  // inherit the same CPUs.
  const int pinned = perfbench::PinToCpus(perfbench::HostThreads(cfg.workload));
  return perfbench::Run(cfg, pinned);
}
