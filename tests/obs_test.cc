// Tests for the observability plane (src/obs/): golden-file Chrome-trace
// export, byte-deterministic metrics export, concurrent recording from
// pool threads (the suite the ThreadSanitizer CI job watches), and the
// run-report schema round-trip through the in-tree JSON parser.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "sim/timeline.h"

namespace gum::obs {
namespace {

// ---------------------------------------------------------------------------
// Chrome trace export

// The exact export of a fixed span set. Two devices, two iterations (the
// second iteration starts at the first's BSP wall = 3 ms), plus two
// explicit host spans. If this golden changes, Perfetto compatibility must
// be re-checked by hand (ISSUE acceptance: the file loads in Perfetto).
constexpr char kChromeTraceGolden[] = R"json({
 "displayTimeUnit": "ms",
 "traceEvents": [
  {
   "ph": "M",
   "pid": 1,
   "name": "process_name",
   "args": {
    "name": "simulated devices (vGPU lanes)"
   }
  },
  {
   "ph": "M",
   "pid": 1,
   "tid": 0,
   "name": "thread_name",
   "args": {
    "name": "vGPU 0"
   }
  },
  {
   "ph": "M",
   "pid": 1,
   "tid": 1,
   "name": "thread_name",
   "args": {
    "name": "vGPU 1"
   }
  },
  {
   "ph": "M",
   "pid": 2,
   "name": "process_name",
   "args": {
    "name": "host runtime (wall clock)"
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 0,
   "name": "computation",
   "ts": 0,
   "dur": 2000,
   "args": {
    "iteration": 0
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 0,
   "name": "communication",
   "ts": 2000,
   "dur": 1000,
   "args": {
    "iteration": 0
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 0,
   "name": "computation",
   "ts": 3000,
   "dur": 1500,
   "args": {
    "iteration": 1
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 1,
   "name": "computation",
   "ts": 0,
   "dur": 500,
   "args": {
    "iteration": 0
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 1,
   "name": "overhead",
   "ts": 500,
   "dur": 250,
   "args": {
    "iteration": 0
   }
  },
  {
   "ph": "X",
   "pid": 1,
   "tid": 1,
   "name": "serialization",
   "ts": 3000,
   "dur": 750,
   "args": {
    "iteration": 1
   }
  },
  {
   "ph": "X",
   "pid": 2,
   "tid": 0,
   "name": "gum.expand",
   "ts": 10,
   "dur": 40
  },
  {
   "ph": "X",
   "pid": 2,
   "tid": 1,
   "name": "pool.busy",
   "ts": 12.5,
   "dur": 30
  }
 ]
}
)json";

sim::Timeline GoldenTimeline() {
  sim::Timeline tl(2);
  tl.Add(0, 0, sim::TimeCategory::kCompute, 2.0);
  tl.Add(0, 0, sim::TimeCategory::kCommunication, 1.0);
  tl.Add(0, 1, sim::TimeCategory::kCompute, 0.5);
  tl.Add(0, 1, sim::TimeCategory::kOverhead, 0.25);
  tl.Add(1, 0, sim::TimeCategory::kCompute, 1.5);
  tl.Add(1, 1, sim::TimeCategory::kSerialization, 0.75);
  return tl;
}

TEST(TraceTest, ChromeTraceMatchesGolden) {
  TraceSession session;
  session.AddSimulatedTimeline(GoldenTimeline());
  session.AddHostSpan(0, "gum.expand", 10.0, 40.0);
  session.AddHostSpan(1, "pool.busy", 12.5, 30.0);

  std::ostringstream os;
  session.WriteChromeTrace(os);
  EXPECT_EQ(os.str(), kChromeTraceGolden);
}

TEST(TraceTest, ChromeTraceIsValidJsonAndInsertionOrderIndependent) {
  // Host spans added out of lane/ts order export identically to the golden
  // session: the writer sorts by (lane, ts).
  TraceSession session;
  session.AddHostSpan(1, "pool.busy", 12.5, 30.0);
  session.AddHostSpan(0, "gum.expand", 10.0, 40.0);
  session.AddSimulatedTimeline(GoldenTimeline());

  std::ostringstream os;
  session.WriteChromeTrace(os);
  EXPECT_EQ(os.str(), kChromeTraceGolden);

  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("displayTimeUnit").string_value(), "ms");
  const auto& events = doc->at("traceEvents").array();
  int metadata = 0, complete = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").string_value();
    if (ph == "M") ++metadata;
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").number(), 0.0);
    }
  }
  EXPECT_EQ(metadata, 4);  // 2 process names + 2 vGPU lane names
  EXPECT_EQ(complete, 8);  // 6 simulated buckets + 2 host spans
}

TEST(TraceTest, DisabledScopeRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  { GUM_TRACE_SCOPE("never-recorded"); }

  TraceSession session;
  session.Start();
  EXPECT_TRUE(TracingEnabled());
  session.Stop();
  EXPECT_FALSE(TracingEnabled());
  EXPECT_EQ(session.host_span_count(), 0u);
}

TEST(TraceTest, ScopedSpansLandInSession) {
  TraceSession session;
  session.Start();
  {
    GUM_TRACE_SCOPE("outer");
    GUM_TRACE_SCOPE("inner");
  }
  session.Stop();
  EXPECT_EQ(session.host_span_count(), 2u);

  // Spans after Stop are dropped, not misattributed.
  { GUM_TRACE_SCOPE("after-stop"); }
  EXPECT_EQ(session.host_span_count(), 2u);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, HistogramBucketGeometry) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
}

// The determinism contract: the export depends only on the multiset of
// recorded values, never on recording order (integer buckets and sums).
TEST(MetricsTest, ExportIsOrderIndependentAndByteDeterministic) {
  const std::vector<uint64_t> values = {0, 1, 5, 7, 1024, 65535, 3};

  MetricsRegistry a;
  a.GetCounter("gum_iterations_total").Increment(7);
  a.GetGauge("gum_group_size", {{"system", "gum"}}).Set(8.0);
  Histogram& ha = a.GetHistogram("gum_transfer_bytes");
  for (uint64_t v : values) ha.Observe(v);

  MetricsRegistry b;
  Histogram& hb = b.GetHistogram("gum_transfer_bytes");
  for (auto it = values.rbegin(); it != values.rend(); ++it) hb.Observe(*it);
  b.GetGauge("gum_group_size", {{"system", "gum"}}).Set(8.0);
  Counter& cb = b.GetCounter("gum_iterations_total");
  for (int i = 0; i < 7; ++i) cb.Increment();

  std::ostringstream prom_a, prom_b, json_a, json_b;
  a.WritePrometheus(prom_a);
  b.WritePrometheus(prom_b);
  a.WriteJson(json_a);
  b.WriteJson(json_b);
  EXPECT_EQ(prom_a.str(), prom_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());

  const auto doc = ParseJson(json_a.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("counters").array().size(), 1u);
  EXPECT_EQ(doc->at("gauges").array().size(), 1u);
  EXPECT_EQ(doc->at("histograms").array().size(), 1u);
  const auto& h = doc->at("histograms").array()[0];
  EXPECT_EQ(h.at("count").int_value(),
            static_cast<int64_t>(values.size()));
  EXPECT_EQ(h.at("sum").int_value(), 66575);
}

TEST(MetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  Counter& c2 = reg.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(reg.size(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrent recording (exercised under TSan by the parallel CI job)

TEST(ObsConcurrencyTest, PoolThreadsRecordSpansAndMetricsConcurrently) {
  constexpr int kThreads = 4;
  constexpr size_t kItems = 512;

  MetricsRegistry reg;
  Counter& items = reg.GetCounter("items_total");
  Histogram& sizes = reg.GetHistogram("item_size");

  TraceSession session;
  session.Start();
  std::atomic<uint64_t> checksum{0};
  {
    ThreadPool pool(kThreads);
    pool.ParallelFor(kItems, [&](size_t i) {
      GUM_TRACE_SCOPE("work.item");
      items.Increment();
      sizes.Observe(static_cast<uint64_t>(i));
      checksum.fetch_add(i, std::memory_order_relaxed);
    });
  }  // pool joins; worker buffers retire into the registry
  session.Stop();

  EXPECT_EQ(items.value(), kItems);
  EXPECT_EQ(sizes.count(), kItems);
  EXPECT_EQ(checksum.load(), kItems * (kItems - 1) / 2);
  // Every item's span was captured: the per-thread buffers (including the
  // retired pool workers') all drained into the session.
  EXPECT_GE(session.host_span_count(), kItems);

  std::ostringstream os;
  session.WriteChromeTrace(os);
  EXPECT_TRUE(ParseJson(os.str()).ok());
}

// ---------------------------------------------------------------------------
// Run report

TEST(RunReportTest, SchemaRoundTrip) {
  core::RunResult result;
  result.iterations = 2;
  result.total_ms = 3.75;
  result.edges_processed = 1234;
  result.messages_sent = 567;
  result.stolen_edges_total = 89.0;
  result.fsteal_applied_iterations = 1;
  result.fsteal_lp_iterations_total = 42;
  result.fsteal_milp_nodes_total = 7;
  result.fsteal_plan_cells_total = 3;
  result.osteal_lp_iterations_total = 11;
  result.timeline = GoldenTimeline();
  result.link_bytes = {{1.0, 2.0}, {3.0, 4.0}};
  result.payload_bytes = {{0.0, 2.0}, {3.0, 0.0}};
  result.link_busy_ms = {{0.5, 0.25}, {0.125, 0.0}};

  RunReportMeta meta;
  meta.system = "gum";
  meta.algorithm = "pr";
  meta.dataset = "web-scale11";
  meta.num_devices = 2;
  meta.config = {{"partitioner", "seg"}, {"seed", "1"}};

  MetricsRegistry reg;
  reg.GetCounter("gum_iterations_total").Increment(2);

  std::ostringstream os;
  WriteRunReport(os, meta, result, &reg);

  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("schema_version").int_value(), kRunReportSchemaVersion);

  const JsonValue& m = doc->at("meta");
  EXPECT_EQ(m.at("system").string_value(), "gum");
  EXPECT_EQ(m.at("algorithm").string_value(), "pr");
  EXPECT_EQ(m.at("dataset").string_value(), "web-scale11");
  EXPECT_EQ(m.at("num_devices").int_value(), 2);
  EXPECT_EQ(m.at("config").at("partitioner").string_value(), "seg");

  const JsonValue& r = doc->at("result");
  EXPECT_EQ(r.at("iterations").int_value(), 2);
  EXPECT_DOUBLE_EQ(r.at("total_ms").number(), 3.75);
  EXPECT_EQ(r.at("edges_processed").int_value(), 1234);
  EXPECT_EQ(r.at("messages_sent").int_value(), 567);

  const JsonValue& steal = doc->at("steal");
  EXPECT_EQ(steal.at("fsteal").at("lp_iterations_total").int_value(), 42);
  EXPECT_EQ(steal.at("fsteal").at("milp_nodes_total").int_value(), 7);
  EXPECT_EQ(steal.at("fsteal").at("plan_cells_total").int_value(), 3);
  EXPECT_EQ(steal.at("osteal").at("lp_iterations_total").int_value(), 11);

  const JsonValue& tl = doc->at("timeline");
  EXPECT_EQ(tl.at("num_devices").int_value(), 2);
  EXPECT_EQ(tl.at("num_iterations").int_value(), 2);
  ASSERT_EQ(tl.at("per_iteration").array().size(), 2u);
  const JsonValue& it0 = tl.at("per_iteration").array()[0];
  EXPECT_DOUBLE_EQ(it0.at("wall_ms").number(), 3.0);
  ASSERT_EQ(it0.at("devices").array().size(), 2u);

  const JsonValue& comm = doc->at("comm");
  EXPECT_DOUBLE_EQ(comm.at("total_remote_bytes").number(), 5.0);
  ASSERT_EQ(comm.at("link_bytes").array().size(), 2u);

  EXPECT_EQ(doc->at("metrics").at("counters").array().size(), 1u);
}

bool HasKey(const JsonValue& obj, const std::string& key) {
  for (const auto& [k, v] : obj.members()) {
    if (k == key) return true;
  }
  return false;
}

TEST(RunReportTest, SchemaV4OmitsFaultsSectionWhenInactive) {
  // A faults-off run must not even mention the fault plane: the report
  // stays byte-comparable with pre-fault-plane artifacts.
  core::RunResult result;
  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  EXPECT_EQ(kRunReportSchemaVersion, 4);
  EXPECT_EQ(os.str().find("faults"), std::string::npos);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(HasKey(*doc, "faults"));
}

TEST(RunReportTest, SchemaV4OmitsMutationsSectionWhenInactive) {
  // A mutations-off run must not even mention the mutation plane: modulo
  // schema_version the report stays byte-identical to a v2 artifact.
  core::RunResult result;
  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  EXPECT_EQ(os.str().find("mutations"), std::string::npos);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(HasKey(*doc, "mutations"));
}

TEST(RunReportTest, SchemaV4OmitsAsyncSectionWhenInactive) {
  // A --mode=bsp run must not even mention the async plane: modulo
  // schema_version the report stays byte-identical to a v3 artifact.
  core::RunResult result;
  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  EXPECT_EQ(os.str().find("async"), std::string::npos);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(HasKey(*doc, "async"));
}

TEST(RunReportTest, AsyncSectionRoundTrips) {
  core::RunResult result;
  result.async_active = true;
  result.async_batches = 730;
  result.async_stale_skips = 45;
  result.async_delta = 15.5;
  result.async_bucket_histogram = {4, 0, 9, 2};
  result.async_range_steals = 3;
  result.async_range_steal_entries = 96;
  result.async_range_steal_bytes = 1536.0;
  result.async_smq_rebalances = 12;
  result.quiescence_rounds = 5;

  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(HasKey(*doc, "async"));
  const JsonValue& a = doc->at("async");
  EXPECT_EQ(a.at("batches").int_value(), 730);
  EXPECT_EQ(a.at("stale_skips").int_value(), 45);
  EXPECT_DOUBLE_EQ(a.at("delta").number(), 15.5);
  const auto& hist = a.at("bucket_histogram").array();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0].int_value(), 4);
  EXPECT_EQ(hist[2].int_value(), 9);
  EXPECT_EQ(a.at("range_steals").int_value(), 3);
  EXPECT_EQ(a.at("range_steal_entries").int_value(), 96);
  EXPECT_DOUBLE_EQ(a.at("range_steal_bytes").number(), 1536.0);
  EXPECT_EQ(a.at("smq_rebalances").int_value(), 12);
  EXPECT_EQ(a.at("quiescence_rounds").int_value(), 5);
}

TEST(RunReportTest, MutationsSectionRoundTrips) {
  core::RunResult result;
  result.mutation_plane_active = true;
  result.mutation_epochs = 4;
  result.mutation_events_applied = 96;
  result.mutation_noops = 5;
  result.mutation_delta_bytes = 2048.0;
  result.mutation_compactions = 2;
  result.mutation_incremental_epochs = 3;
  result.mutation_skipped_epochs = 1;
  result.mutation_fallbacks = 1;
  result.mutation_apply_ms = 0.5;
  result.mutation_compact_ms = 1.25;
  result.mutation_restore_ms = 0.75;

  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(HasKey(*doc, "mutations"));
  const JsonValue& m = doc->at("mutations");
  EXPECT_EQ(m.at("epochs").int_value(), 4);
  EXPECT_EQ(m.at("events_applied").int_value(), 96);
  EXPECT_EQ(m.at("noops").int_value(), 5);
  EXPECT_DOUBLE_EQ(m.at("delta_bytes").number(), 2048.0);
  EXPECT_EQ(m.at("compactions").int_value(), 2);
  EXPECT_EQ(m.at("incremental_epochs").int_value(), 3);
  EXPECT_EQ(m.at("skipped_epochs").int_value(), 1);
  EXPECT_EQ(m.at("fallbacks").int_value(), 1);
  EXPECT_DOUBLE_EQ(m.at("apply_ms").number(), 0.5);
  EXPECT_DOUBLE_EQ(m.at("compact_ms").number(), 1.25);
  EXPECT_DOUBLE_EQ(m.at("restore_ms").number(), 0.75);
}

TEST(RunReportTest, FaultsSectionRoundTrips) {
  core::RunResult result;
  result.fault_plan_active = true;
  result.faults.checkpoints_taken = 3;
  result.faults.checkpoint_bytes_total = 4096.0;
  result.faults.checkpoint_ms_total = 0.5;
  result.faults.devices_failed = 1;
  result.faults.recovery_events = 2;
  result.faults.fragments_migrated = 5;
  result.faults.recovery_detect_ms = 0.25;
  result.faults.recovery_restore_ms = 1.5;
  result.faults.recovery_migrate_ms = 0.75;
  result.faults.lost_work_ms = 2.0;
  result.faults.straggler_ms = 0.125;
  result.faults.link_fault_iterations = 4;

  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(HasKey(*doc, "faults"));
  const JsonValue& f = doc->at("faults");
  EXPECT_TRUE(f.at("plan_active").bool_value());
  EXPECT_EQ(f.at("checkpoints_taken").int_value(), 3);
  EXPECT_DOUBLE_EQ(f.at("checkpoint_bytes_total").number(), 4096.0);
  EXPECT_DOUBLE_EQ(f.at("checkpoint_ms_total").number(), 0.5);
  EXPECT_EQ(f.at("devices_failed").int_value(), 1);
  EXPECT_EQ(f.at("recovery_events").int_value(), 2);
  EXPECT_EQ(f.at("fragments_migrated").int_value(), 5);
  EXPECT_DOUBLE_EQ(f.at("recovery_detect_ms").number(), 0.25);
  EXPECT_DOUBLE_EQ(f.at("recovery_restore_ms").number(), 1.5);
  EXPECT_DOUBLE_EQ(f.at("recovery_migrate_ms").number(), 0.75);
  // recovery_charged_ms = detect + restore + migrate + lost work.
  EXPECT_DOUBLE_EQ(f.at("recovery_charged_ms").number(), 4.5);
  EXPECT_DOUBLE_EQ(f.at("lost_work_ms").number(), 2.0);
  EXPECT_DOUBLE_EQ(f.at("straggler_ms").number(), 0.125);
  EXPECT_EQ(f.at("link_fault_iterations").int_value(), 4);
}

TEST(RunReportTest, CheckpointOnlyRunStillEmitsFaultsSection) {
  // ckpt_every > 0 without a fault plan charges real time; the report must
  // say where it went even though plan_active is false.
  core::RunResult result;
  result.faults.checkpoints_taken = 2;
  result.faults.checkpoint_ms_total = 0.25;
  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(HasKey(*doc, "faults"));
  EXPECT_FALSE(doc->at("faults").at("plan_active").bool_value());
  EXPECT_EQ(doc->at("faults").at("checkpoints_taken").int_value(), 2);
}

TEST(RunReportTest, NullMetricsYieldsEmptyObject) {
  core::RunResult result;
  RunReportMeta meta;
  std::ostringstream os;
  WriteRunReport(os, meta, result, nullptr);
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("metrics").members().size(), 0u);
}

}  // namespace
}  // namespace gum::obs
