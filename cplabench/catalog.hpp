#pragma once

// The benchmark's metric catalogue. BENCHMARK.json lists the same names and
// units (`run.py --self-test` checks that), and METRICS.md documents each.

#include <vector>

#include "cplabench/report.hpp"

namespace cplabench {

/// Printed with --trace 0, on every workload.
inline std::vector<MetricDef> end_to_end_metrics() {
  return {
      {"setup_s", "s"},          {"wall_s", "s"},          {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},     {"avg_tcp", "elmore"},    {"max_tcp", "elmore"},
      {"via_overflow", "count"}, {"via_count", "count"},   {"resolve_p50_ms", "ms"},
      {"resolve_p90_ms", "ms"},
  };
}

/// Printed with --trace 1, on every workload. Counts and times are per op
/// (mean over the run's traced ops) unless METRICS.md says otherwise.
inline std::vector<MetricDef> per_layer_metrics() {
  return {
      // sdp
      {"sdp.calls", "count"},
      {"sdp.iterations", "count"},
      {"sdp.iterations_per_call", "ratio"},
      {"sdp.failures", "count"},
      {"sdp.stalls", "count"},
      {"sdp.busy_ms", "ms"},
      // la
      {"la.cholesky.factors", "count"},
      {"la.cholesky.failures", "count"},
      {"la.cholesky.fail_frac", "ratio"},
      {"la.eigen.calls", "count"},
      // core.solve_guard
      {"core.guard.solves", "count"},
      {"core.guard.busy_ms", "ms"},
      {"core.guard.cpu_ms", "ms"},
      {"core.guard.solve_p50_ms", "ms"},
      {"core.guard.solve_p99_ms", "ms"},
      {"core.guard.tier.primary", "count"},
      {"core.guard.tier.retry", "count"},
      {"core.guard.tier.ilp", "count"},
      {"core.guard.tier.net_dp", "count"},
      {"core.guard.tier.keep_current", "count"},
      {"core.guard.primary_accept_frac", "ratio"},
      {"core.guard.numerical_failures", "count"},
      {"core.guard.iteration_limits", "count"},
      {"core.guard.validation_rejects", "count"},
      {"core.guard.commit_rollbacks", "count"},
      // ilp, lp
      {"ilp.bnb.solves", "count"},
      {"ilp.bnb.nodes", "count"},
      {"lp.simplex.pivots", "count"},
      {"core.guard.ilp_rescue_frac", "ratio"},
      // core.flow
      {"core.flow.rounds", "count"},
      {"core.flow.partitions", "count"},
      {"core.flow.solve_phase_ms", "ms"},
      {"core.flow.commit_ms", "ms"},
      {"core.flow.displace_ms", "ms"},
      {"core.flow.timing_snapshot_ms", "ms"},
      {"core.flow.partition_ms", "ms"},
      {"core.flow.overhead_ms", "ms"},
      {"core.flow.solver_utilization", "ratio"},
      {"core.flow.thread_divergent_nets", "count"},
      {"core.flow.threads4_wall_s", "s"},
      {"core.flow.threads4_cpu_s", "s"},
      // assign: wire overflow of the landed assignment (per_layer, not
      // end-to-end: on eco_stream it averages 0.6-1.0, too small to bound)
      {"assign.wire_overflow", "count"},
      // route, assign, gen, core.critical (set-up)
      {"route.route2d_ms", "ms"},
      {"route.ripup_rounds", "count"},
      {"route.ripup_reroutes", "count"},
      {"route.extract_trees_ms", "ms"},
      {"assign.initial_assign_ms", "ms"},
      {"gen.generate_ms", "ms"},
      {"core.critical.select_ms", "ms"},
      {"core.critical.nets", "count"},
      // lagr, core.tila
      {"lagr.solve.calls", "count"},
      {"lagr.solve.improved", "count"},
      {"lagr.improved_frac", "ratio"},
      {"core.tila.ms", "ms"},
      {"core.tila.avg_tcp", "elmore"},
      {"core.tila.max_tcp", "elmore"},
      // timing
      {"timing.elmore.evals", "count"},
      {"timing.incremental.lookups", "count"},
      {"timing.incremental.hit_frac", "ratio"},
      {"timing.compute_metrics_ms", "ms"},
      // sta
      {"sta.update.incremental", "count"},
      {"sta.update.full", "count"},
      {"sta.update.dirty_nodes", "count"},
      {"sta.topk_ms", "ms"},
      // eco
      {"eco.apply_us_p50", "us"},
      {"eco.cache.lookups", "count"},
      {"eco.cache.hit_frac", "ratio"},
      {"eco.cache.replay_rejects", "count"},
      {"eco.partitions.dirty", "count"},
      {"eco.partitions.clean", "count"},
      {"eco.resolve.fallbacks", "count"},
      // the trace itself
      {"trace.ops", "count"},
      {"trace.spans", "count"},
      {"trace.nesting_violations", "count"},
      {"trace.overhead_s", "s"},
  };
}

}  // namespace cplabench
