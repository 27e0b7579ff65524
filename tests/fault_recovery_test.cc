// End-to-end fault-plane tests (DESIGN.md §11): a run that loses a device
// mid-flight must converge to byte-identical algorithm output vs the
// fault-free run, deterministically across host thread counts and
// checkpoint cadences, with the detection / restore / migration time
// charged into the analytic model.

#include <gtest/gtest.h>

#include "algos/apps.h"
#include "core/engine.h"
#include "fault/fault_plane.h"
#include "fault/recovery.h"
#include "tests/test_util.h"

namespace gum::core {
namespace {

using algos::BfsApp;
using algos::PageRankApp;
using algos::SsspApp;
using algos::WccApp;
using graph::VertexId;
using test::MakePartition;
using test::RoadGraph;
using test::SocialGraph;
using test::SocialGraphSym;
using test::TestEngineOptions;
using test::Topo;

fault::FaultPlane MustPlane(const std::string& spec, int num_devices,
                            uint64_t seed = 1) {
  auto plan = fault::FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto plane = fault::FaultPlane::Create(*plan, num_devices, seed);
  EXPECT_TRUE(plane.ok()) << plane.status().ToString();
  return std::move(plane).value();
}

template <typename App>
struct RunOut {
  std::vector<typename App::Value> values;
  RunResult result;
};

template <typename App>
RunOut<App> RunEngine(const graph::CsrGraph& g, const graph::Partition& part,
                      App app, const fault::FaultPlane* plane, int ckpt_every,
                      int threads = 1, bool osteal = true) {
  EngineOptions opt = TestEngineOptions();
  opt.enable_osteal = osteal;
  opt.num_host_threads = threads;
  opt.fault_plane = plane;
  opt.checkpoint.every = ckpt_every;
  GumEngine<App> engine(&g, part, Topo(part.num_parts), opt);
  RunOut<App> out;
  out.result = engine.Run(app, &out.values);
  return out;
}

TEST(FaultRecoveryTest, BfsByteIdenticalAfterFailStop) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  ASSERT_GT(clean.result.iterations, 2);  // the failure must fire mid-run

  const auto plane = MustPlane("failstop:1@2", 4);
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/1);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_TRUE(faulted.result.fault_plan_active);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
  EXPECT_GE(faulted.result.faults.recovery_events, 1);
  EXPECT_GT(faulted.result.faults.RecoveryChargedMs(), 0.0);
  EXPECT_GT(faulted.result.total_ms, clean.result.total_ms);
  EXPECT_FALSE(clean.result.fault_plan_active);
}

TEST(FaultRecoveryTest, SsspByteIdenticalAfterFailStop) {
  const auto g = RoadGraph();
  const auto part = MakePartition(g, 4);
  SsspApp app;
  app.source = 0;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  ASSERT_GT(clean.result.iterations, 3);

  const auto plane = MustPlane("failstop:2@3", 4);
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/2);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
  EXPECT_GT(faulted.result.faults.RecoveryChargedMs(), 0.0);
}

TEST(FaultRecoveryTest, PageRankByteIdenticalAfterFailStop) {
  const auto g = SocialGraph(9, 5);
  const auto part = MakePartition(g, 4);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 10;
  const auto clean = RunEngine(g, part, app, nullptr, 0);

  const auto plane = MustPlane("failstop:3@4", 4);
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/3);
  EXPECT_EQ(faulted.values, clean.values);  // bit-exact doubles
  EXPECT_EQ(faulted.result.iterations, clean.result.iterations);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
}

TEST(FaultRecoveryTest, WccByteIdenticalAfterFailStop) {
  const auto g = SocialGraphSym();
  const auto part = MakePartition(g, 4);
  WccApp app;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  ASSERT_GT(clean.result.iterations, 2);

  const auto plane = MustPlane("failstop:0@2", 4);
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/1);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
}

TEST(FaultRecoveryTest, DeterministicAcrossThreadsAndCadences) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto plane = MustPlane("failstop:5@2", 8);

  for (const int ckpt : {1, 3}) {
    const auto reference = RunEngine(g, part, app, &plane, ckpt, /*threads=*/1);
    EXPECT_EQ(reference.values, clean.values) << "ckpt_every=" << ckpt;
    for (const int threads : {2, 4, 8}) {
      const auto run = RunEngine(g, part, app, &plane, ckpt, threads);
      EXPECT_EQ(run.values, clean.values)
          << "threads=" << threads << " ckpt_every=" << ckpt;
      // The whole faulted run — time, counters, iteration count — is as
      // deterministic as a fault-free one.
      EXPECT_DOUBLE_EQ(run.result.total_ms, reference.result.total_ms)
          << "threads=" << threads << " ckpt_every=" << ckpt;
      EXPECT_EQ(run.result.iterations, reference.result.iterations);
      EXPECT_EQ(run.result.faults.recovery_events,
                reference.result.faults.recovery_events);
      EXPECT_DOUBLE_EQ(run.result.faults.RecoveryChargedMs(),
                       reference.result.faults.RecoveryChargedMs());
    }
  }
}

TEST(FaultRecoveryTest, ZeroCadenceRestartsFromIterationZero) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto plane = MustPlane("failstop:1@2", 4);
  // No periodic checkpoints: recovery falls back to the implicit
  // iteration-0 snapshot and replays everything; the discarded work is
  // charged as lost time.
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/0);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.checkpoints_taken, 0);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
  if (faulted.result.faults.lost_work_ms > 0) {
    EXPECT_GT(faulted.result.faults.RecoveryChargedMs(),
              faulted.result.faults.recovery_detect_ms);
  }
}

TEST(FaultRecoveryTest, TwoFailuresBothRecovered) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto plane = MustPlane("failstop:2@1;failstop:6@2", 8);
  const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/1);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.devices_failed, 2);
  EXPECT_GE(faulted.result.faults.recovery_events, 2);
}

TEST(FaultRecoveryTest, RecoveryWorksWithOStealDisabled) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0, 1, /*osteal=*/false);
  const auto plane = MustPlane("failstop:1@2", 4);
  const auto faulted =
      RunEngine(g, part, app, &plane, /*ckpt_every=*/1, 1, /*osteal=*/false);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.devices_failed, 1);
}

TEST(FaultRecoveryTest, StragglerChangesTimeNeverValues) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  // Straggle every device with a factor large enough that whoever ends up
  // owning the compute becomes the iteration bottleneck and visibly
  // stretches the wall, not just its own busy time.
  const auto plane = MustPlane(
      "straggler:0@0-50x1000;straggler:1@0-50x1000;"
      "straggler:2@0-50x1000;straggler:3@0-50x1000",
      4);
  const auto slow = RunEngine(g, part, app, &plane, 0);
  EXPECT_EQ(slow.values, clean.values);
  EXPECT_GT(slow.result.faults.straggler_ms, 0.0);
  EXPECT_GT(slow.result.total_ms, clean.result.total_ms);
  EXPECT_EQ(slow.result.faults.devices_failed, 0);
}

TEST(FaultRecoveryTest, LinkFaultsRerouteNeverChangeValues) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto plane =
      MustPlane("linkdown:0-1@0-50;degrade:2-3@1-4x0.25;flap:4-5@0-50/1", 8);
  const auto faulted = RunEngine(g, part, app, &plane, 0);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_GT(faulted.result.faults.link_fault_iterations, 0);
  EXPECT_EQ(faulted.result.faults.devices_failed, 0);
}

TEST(FaultRecoveryTest, CheckpointsAloneChargeTimeNeverValues) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto ckpt = RunEngine(g, part, app, nullptr, /*ckpt_every=*/2);
  EXPECT_EQ(ckpt.values, clean.values);
  EXPECT_GT(ckpt.result.faults.checkpoints_taken, 0);
  EXPECT_GT(ckpt.result.faults.checkpoint_ms_total, 0.0);
  EXPECT_GT(ckpt.result.total_ms, clean.result.total_ms);
  EXPECT_FALSE(ckpt.result.fault_plan_active);
}

TEST(FaultRecoveryTest, FailureAfterConvergenceIsInvisible) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 4);
  BfsApp app;
  app.source = 1;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  const auto plane = MustPlane("failstop:1@500", 4);
  const auto faulted = RunEngine(g, part, app, &plane, 0);
  EXPECT_EQ(faulted.values, clean.values);
  EXPECT_EQ(faulted.result.faults.devices_failed, 0);
  EXPECT_EQ(faulted.result.faults.recovery_events, 0);
  // The plan is active but nothing fired: identical charged time.
  EXPECT_DOUBLE_EQ(faulted.result.total_ms, clean.result.total_ms);
  EXPECT_TRUE(faulted.result.fault_plan_active);
}

// Checkpoints snapshot the SoA VertexState (values + frontier arena), so
// recovery must be exact under every expand backend — including iterations
// where the auto heuristic picked a pull gather and the frontier was
// rebuilt through the SpMV path.
template <typename App>
void ExpectRecoveryExactUnderBackend(const graph::CsrGraph& g,
                                     const graph::Partition& part, App app,
                                     ExpandBackendKind backend) {
  EngineOptions opt = TestEngineOptions();
  opt.expand_backend = backend;
  std::vector<typename App::Value> clean;
  {
    GumEngine<App> engine(&g, part, Topo(part.num_parts), opt);
    (void)engine.Run(app, &clean);
  }
  const auto plane = MustPlane("failstop:1@2", part.num_parts);
  opt.fault_plane = &plane;
  opt.checkpoint.every = 2;
  GumEngine<App> engine(&g, part, Topo(part.num_parts), opt);
  std::vector<typename App::Value> faulted;
  const RunResult result = engine.Run(app, &faulted);
  EXPECT_EQ(faulted, clean)
      << "backend=" << ExpandBackendKindName(backend);
  EXPECT_EQ(result.faults.devices_failed, 1);
  EXPECT_GE(result.faults.recovery_events, 1);
}

TEST(FaultRecoveryTest, ScatterBackendRecoversExactly) {
  const auto g = SocialGraph();
  BfsApp app;
  app.source = 1;
  ExpectRecoveryExactUnderBackend(g, MakePartition(g, 4), app,
                                  ExpandBackendKind::kScatter);
}

TEST(FaultRecoveryTest, SpmvBackendRecoversExactly) {
  const auto g = SocialGraph(9, 5);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 10;
  ExpectRecoveryExactUnderBackend(g, MakePartition(g, 4), app,
                                  ExpandBackendKind::kSpmv);
}

TEST(FaultRecoveryTest, AutoBackendRecoversExactly) {
  const auto g = SocialGraph();
  BfsApp app;
  app.source = 1;
  ExpectRecoveryExactUnderBackend(g, MakePartition(g, 4), app,
                                  ExpandBackendKind::kAuto);
}

// ---------- multi-path striping under the fault overlay ----------

// Link faults hitting a run whose bulk transfers are striped
// (contention=fair, multipath=on) must only drop paths from the plans —
// the transfers always land, so values stay byte-identical to the
// fault-free run, deterministically across thread counts.
TEST(FaultRecoveryTest, LinkFaultsDuringStripedTransfersDropOnlyPaths) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = 1;

  auto run = [&](const fault::FaultPlane* plane, int threads,
                 std::vector<uint32_t>* values) {
    EngineOptions opt = TestEngineOptions();
    opt.contention = sim::ContentionModel::kFair;
    opt.multipath = sim::MultipathMode::kOn;
    opt.num_host_threads = threads;
    opt.fault_plane = plane;
    GumEngine<BfsApp> engine(&g, part, Topo(8), opt);
    return engine.Run(app, values);
  };

  std::vector<uint32_t> clean_values;
  const RunResult clean = run(nullptr, 1, &clean_values);
  EXPECT_TRUE(clean.multipath_active);

  const auto plane =
      MustPlane("linkdown:0-1@0-50;degrade:2-3@1-4x0.25;flap:4-5@0-50/1", 8);
  std::vector<uint32_t> reference_values;
  const RunResult reference = run(&plane, 1, &reference_values);
  EXPECT_EQ(reference_values, clean_values);
  EXPECT_GT(reference.faults.link_fault_iterations, 0);
  EXPECT_EQ(reference.faults.devices_failed, 0);

  for (const int threads : {2, 4, 8}) {
    std::vector<uint32_t> values;
    const RunResult r = run(&plane, threads, &values);
    EXPECT_EQ(values, clean_values) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.total_ms, reference.total_ms)
        << "threads=" << threads;
    EXPECT_EQ(r.iterations, reference.iterations) << "threads=" << threads;
    EXPECT_EQ(r.multipath.paths_dropped, reference.multipath.paths_dropped)
        << "threads=" << threads;
  }
}

// A failstop during a multipath run recovers to byte-identical values
// while the migration traffic rides the striped peer-to-peer paths.
TEST(FaultRecoveryTest, FailStopRecoveryExactUnderMultipath) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  BfsApp app;
  app.source = 1;

  auto run = [&](const fault::FaultPlane* plane, sim::MultipathMode multipath,
                 std::vector<uint32_t>* values) {
    EngineOptions opt = TestEngineOptions();
    opt.contention = sim::ContentionModel::kFair;
    opt.multipath = multipath;
    opt.fault_plane = plane;
    opt.checkpoint.every = 1;
    GumEngine<BfsApp> engine(&g, part, Topo(8), opt);
    return engine.Run(app, values);
  };

  std::vector<uint32_t> clean_values;
  (void)run(nullptr, sim::MultipathMode::kOff, &clean_values);

  const auto plane = MustPlane("failstop:5@2", 8);
  std::vector<uint32_t> on_values;
  const RunResult on = run(&plane, sim::MultipathMode::kOn, &on_values);
  EXPECT_EQ(on_values, clean_values);
  EXPECT_EQ(on.faults.devices_failed, 1);
  EXPECT_GE(on.faults.recovery_events, 1);

  std::vector<uint32_t> off_values;
  const RunResult off = run(&plane, sim::MultipathMode::kOff, &off_values);
  EXPECT_EQ(off_values, clean_values);
  // The striped recovery path is strictly cheaper than the PCIe
  // round-trip on the same migration set.
  EXPECT_LE(on.faults.recovery_migrate_ms, off.faults.recovery_migrate_ms);
}

// Unit-level check of the recovery charge itself: a migrated fragment
// whose checkpoint owner survived rides the striped NVLink paths, which
// beat the legacy host PCIe round-trip.
TEST(FaultRecoveryTest, MultipathRecoveryChargeBeatsLegacy) {
  // Eight fragments on eight devices. Device 1 is dead: fragment 1
  // migrates to device 2 (host read-back — its checkpoint owner is gone),
  // and fragment 3 is rebalanced from the *surviving* device 3 to device 4
  // (the peer-to-peer striping case). Everything else stays put.
  const std::vector<int> ckpt_owner = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> new_owner = {0, 2, 2, 4, 4, 5, 6, 7};
  const std::vector<bool> failed = {false, true, false, false, false,
                                    false, false, false};
  const std::vector<double> fragment_bytes(8, 4e6);

  const fault::RecoveryCharge legacy = fault::ComputeRecoveryCharge(
      ckpt_owner, new_owner, failed, fragment_bytes);

  sim::CommPlane plane(sim::Topology::HybridCubeMesh8(),
                       sim::ContentionModel::kFair);
  plane.set_multipath(true);
  const fault::RecoveryCharge striped = fault::ComputeRecoveryCharge(
      ckpt_owner, new_owner, failed, fragment_bytes, &plane);

  EXPECT_EQ(legacy.fragments_migrated, 2);
  EXPECT_EQ(striped.fragments_migrated, 2);
  EXPECT_DOUBLE_EQ(legacy.detect_ms, striped.detect_ms);
  // Both the restore read-back (PCIe + NVLink relay) and the migration
  // (striped peer-to-peer) are strictly faster under the plans.
  EXPECT_LT(striped.restore_ms, legacy.restore_ms);
  EXPECT_LT(striped.migrate_ms, legacy.migrate_ms);
  EXPECT_GT(striped.migrate_ms, 0.0);
}

TEST(FaultRecoveryTest, ChaosPlanConvergesByteIdentical) {
  const auto g = SocialGraph();
  const auto part = MakePartition(g, 8);
  PageRankApp app;
  app.num_vertices = g.num_vertices();
  app.rounds = 8;
  const auto clean = RunEngine(g, part, app, nullptr, 0);
  for (const uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto plane = MustPlane("chaos", 8, seed);
    const auto faulted = RunEngine(g, part, app, &plane, /*ckpt_every=*/2);
    EXPECT_EQ(faulted.values, clean.values) << "seed=" << seed;
    EXPECT_EQ(faulted.result.faults.devices_failed, 1) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace gum::core
