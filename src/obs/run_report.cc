#include "obs/run_report.h"

#include "common/json.h"
#include "obs/metrics.h"
#include "sim/timeline.h"

namespace gum::obs {

namespace {

void WriteMatrix(JsonWriter& w, const char* key,
                 const std::vector<std::vector<double>>& m) {
  w.Key(key).BeginArray();
  for (const auto& row : m) {
    w.BeginArray();
    for (double v : row) w.Value(v);
    w.EndArray();
  }
  w.EndArray();
}

}  // namespace

void WriteRunReport(std::ostream& os, const RunReportMeta& meta,
                    const core::RunResult& result,
                    const MetricsRegistry* metrics) {
  const sim::Timeline& tl = result.timeline;

  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("schema_version").Value(kRunReportSchemaVersion);

  w.Key("meta").BeginObject();
  w.Key("system").Value(meta.system);
  w.Key("algorithm").Value(meta.algorithm);
  w.Key("dataset").Value(meta.dataset);
  w.Key("num_devices").Value(meta.num_devices);
  w.Key("config").BeginObject();
  for (const auto& [k, v] : meta.config) w.Key(k).Value(v);
  w.EndObject();
  w.EndObject();

  w.Key("result").BeginObject();
  w.Key("iterations").Value(result.iterations);
  w.Key("total_ms").Value(result.total_ms);
  w.Key("edges_processed").Value(result.edges_processed);
  w.Key("messages_sent").Value(result.messages_sent);
  w.Key("stolen_edges_total").Value(result.stolen_edges_total);
  w.Key("compute_ms").Value(result.ComputeMs());
  w.Key("communication_ms").Value(result.CommunicationMs());
  w.Key("serialization_ms").Value(result.SerializationMs());
  w.Key("overhead_ms").Value(result.OverheadMs());
  w.Key("starvation_ms").Value(result.StarvationMs());
  w.Key("stall_fraction").Value(tl.StallFraction());
  w.EndObject();

  w.Key("steal").BeginObject();
  w.Key("fsteal").BeginObject();
  w.Key("applied_iterations").Value(result.fsteal_applied_iterations);
  w.Key("decision_host_ms_total").Value(result.fsteal_decision_host_ms_total);
  w.Key("sim_overhead_ms").Value(result.fsteal_sim_overhead_ms);
  w.Key("lp_iterations_total").Value(result.fsteal_lp_iterations_total);
  w.Key("milp_nodes_total").Value(result.fsteal_milp_nodes_total);
  w.Key("plan_cells_total").Value(result.fsteal_plan_cells_total);
  w.EndObject();
  w.Key("osteal").BeginObject();
  w.Key("shrink_events").Value(result.osteal_shrink_events);
  w.Key("decision_host_ms_total").Value(result.osteal_decision_host_ms_total);
  w.Key("sim_overhead_ms").Value(result.osteal_sim_overhead_ms);
  w.Key("lp_iterations_total").Value(result.osteal_lp_iterations_total);
  w.Key("milp_nodes_total").Value(result.osteal_milp_nodes_total);
  w.EndObject();
  w.EndObject();

  w.Key("iterations").BeginArray();
  for (const core::IterationStats& it : result.iteration_stats) {
    w.BeginObject();
    w.Key("iteration").Value(it.iteration);
    w.Key("wall_ms").Value(it.wall_ms);
    w.Key("group_size").Value(it.group_size);
    w.Key("fsteal_applied").Value(it.fsteal_applied);
    w.Key("osteal_evaluated").Value(it.osteal_evaluated);
    w.Key("group_size_changed").Value(it.group_size_changed);
    w.Key("fsteal_decision_host_ms").Value(it.fsteal_decision_host_ms);
    w.Key("osteal_decision_host_ms").Value(it.osteal_decision_host_ms);
    w.Key("stolen_edges").Value(it.stolen_edges);
    w.Key("fsteal_plan_cells").Value(it.fsteal_plan_cells);
    w.EndObject();
  }
  w.EndArray();

  // Full per-(iteration, device) bucket matrix — the data behind paper
  // Figs. 1/6/8. Rows are [compute, communication, serialization, overhead]
  // in ms, one row per device.
  w.Key("timeline").BeginObject();
  w.Key("num_devices").Value(tl.num_devices());
  w.Key("num_iterations").Value(tl.num_iterations());
  w.Key("categories").BeginArray();
  for (int c = 0; c < sim::kNumTimeCategories; ++c) {
    w.Value(sim::TimeCategoryName(static_cast<sim::TimeCategory>(c)));
  }
  w.EndArray();
  w.Key("per_iteration").BeginArray();
  for (int iter = 0; iter < tl.num_iterations(); ++iter) {
    w.BeginObject();
    w.Key("wall_ms").Value(tl.IterationWall(iter));
    w.Key("devices").BeginArray();
    for (int d = 0; d < tl.num_devices(); ++d) {
      w.BeginArray();
      for (int c = 0; c < sim::kNumTimeCategories; ++c) {
        w.Value(tl.Get(iter, d, static_cast<sim::TimeCategory>(c)));
      }
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  // Fault-plane counters (DESIGN.md §11). Gated so a faults-off run emits
  // no "faults" key at all — its report stays byte-identical to a build
  // without the fault subsystem (modulo schema_version).
  const core::FaultStats& faults = result.faults;
  if (result.fault_plan_active || faults.checkpoints_taken > 0 ||
      faults.recovery_events > 0) {
    w.Key("faults").BeginObject();
    w.Key("plan_active").Value(result.fault_plan_active);
    w.Key("checkpoints_taken").Value(faults.checkpoints_taken);
    w.Key("checkpoint_bytes_total").Value(faults.checkpoint_bytes_total);
    w.Key("checkpoint_ms_total").Value(faults.checkpoint_ms_total);
    w.Key("devices_failed").Value(faults.devices_failed);
    w.Key("recovery_events").Value(faults.recovery_events);
    w.Key("fragments_migrated").Value(faults.fragments_migrated);
    w.Key("recovery_detect_ms").Value(faults.recovery_detect_ms);
    w.Key("recovery_restore_ms").Value(faults.recovery_restore_ms);
    w.Key("recovery_migrate_ms").Value(faults.recovery_migrate_ms);
    w.Key("recovery_charged_ms").Value(faults.RecoveryChargedMs());
    w.Key("lost_work_ms").Value(faults.lost_work_ms);
    w.Key("straggler_ms").Value(faults.straggler_ms);
    w.Key("link_fault_iterations").Value(faults.link_fault_iterations);
    w.EndObject();
  }

  // Mutation-plane counters (DESIGN.md §14). Gated like the faults
  // section: a mutations-off run emits no "mutations" key, so its report
  // stays byte-identical to a v2 report modulo schema_version.
  if (result.mutation_plane_active) {
    w.Key("mutations").BeginObject();
    w.Key("epochs").Value(result.mutation_epochs);
    w.Key("events_applied").Value(result.mutation_events_applied);
    w.Key("noops").Value(result.mutation_noops);
    w.Key("delta_bytes").Value(result.mutation_delta_bytes);
    w.Key("compactions").Value(result.mutation_compactions);
    w.Key("incremental_epochs").Value(result.mutation_incremental_epochs);
    w.Key("skipped_epochs").Value(result.mutation_skipped_epochs);
    w.Key("fallbacks").Value(result.mutation_fallbacks);
    w.Key("apply_ms").Value(result.mutation_apply_ms);
    w.Key("compact_ms").Value(result.mutation_compact_ms);
    w.Key("restore_ms").Value(result.mutation_restore_ms);
    w.EndObject();
  }

  // Async-mode counters (core/async/, DESIGN.md §15). Gated like the
  // faults and mutations sections: a --mode=bsp run emits no "async" key,
  // so its report stays byte-identical to a v3 report modulo
  // schema_version.
  if (result.async_active) {
    w.Key("async").BeginObject();
    w.Key("batches").Value(result.async_batches);
    w.Key("stale_skips").Value(result.async_stale_skips);
    w.Key("delta").Value(result.async_delta);
    w.Key("bucket_histogram").BeginArray();
    for (const uint64_t c : result.async_bucket_histogram) w.Value(c);
    w.EndArray();
    w.Key("range_steals").Value(result.async_range_steals);
    w.Key("range_steal_entries").Value(result.async_range_steal_entries);
    w.Key("range_steal_bytes").Value(result.async_range_steal_bytes);
    w.Key("smq_rebalances").Value(result.async_smq_rebalances);
    w.Key("quiescence_rounds").Value(result.quiescence_rounds);
    w.EndObject();
  }

  w.Key("comm").BeginObject();
  w.Key("total_remote_bytes").Value(result.TotalRemoteBytes());
  w.Key("total_payload_bytes").Value(result.TotalPayloadBytes());
  WriteMatrix(w, "link_bytes", result.link_bytes);
  WriteMatrix(w, "payload_bytes", result.payload_bytes);
  WriteMatrix(w, "link_busy_ms", result.link_busy_ms);
  // Multi-path striping telemetry (sim/transfer_plan.h). Gated like the
  // faults section: with multipath off the comm object is byte-identical
  // to a v2 report without the feature.
  if (result.multipath_active) {
    const sim::MultipathStats& mp = result.multipath;
    w.Key("multipath").BeginObject();
    w.Key("bulk_transfers").Value(mp.bulk_transfers);
    w.Key("striped_transfers").Value(mp.striped_transfers);
    w.Key("paths_used").Value(mp.paths_used);
    w.Key("paths_dropped").Value(mp.paths_dropped);
    w.Key("direct_bytes").Value(mp.direct_bytes);
    w.Key("transit_bytes").Value(mp.transit_bytes);
    w.Key("pcie_bytes").Value(mp.pcie_bytes);
    w.Key("single_path_ns").Value(mp.single_path_ns);
    w.Key("striped_ns").Value(mp.striped_ns);
    w.Key("stripe_efficiency").Value(mp.StripeEfficiency());
    w.EndObject();
  }
  w.EndObject();

  w.Key("metrics");
  if (metrics != nullptr) {
    metrics->AppendJson(w);
  } else {
    w.BeginObject().EndObject();
  }

  w.EndObject();
  os << "\n";
}

void WriteServeReport(std::ostream& os, const RunReportMeta& meta,
                      const ServeReportStats& stats,
                      const MetricsRegistry* metrics) {
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("schema_version").Value(kServeReportSchemaVersion);

  w.Key("meta").BeginObject();
  w.Key("system").Value(meta.system);
  w.Key("algorithm").Value(meta.algorithm);
  w.Key("dataset").Value(meta.dataset);
  w.Key("num_devices").Value(meta.num_devices);
  w.Key("config").BeginObject();
  for (const auto& [k, v] : meta.config) w.Key(k).Value(v);
  w.EndObject();
  w.EndObject();

  w.Key("serve").BeginObject();
  w.Key("batch_width").Value(stats.batch_width);
  w.Key("queries").Value(stats.queries);
  w.Key("batches").Value(stats.batches);
  w.Key("makespan_ms").Value(stats.makespan_ms);
  w.Key("queries_per_second").Value(stats.queries_per_second);
  w.Key("p50_ms").Value(stats.p50_ms);
  w.Key("p90_ms").Value(stats.p90_ms);
  w.Key("p99_ms").Value(stats.p99_ms);
  w.Key("recovery_ms").Value(stats.recovery_ms);
  w.EndObject();

  w.Key("queries").BeginArray();
  for (const ServeQueryReport& q : stats.queries_detail) {
    w.BeginObject();
    w.Key("id").Value(q.id);
    w.Key("batch").Value(q.batch);
    w.Key("lane").Value(q.lane);
    w.Key("latency_ms").Value(q.latency_ms);
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics");
  if (metrics != nullptr) {
    metrics->AppendJson(w);
  } else {
    w.BeginObject().EndObject();
  }

  w.EndObject();
  os << "\n";
}

}  // namespace gum::obs
