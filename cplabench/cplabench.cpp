// Benchmark binary: runs one seeded workload through the public CPLA API,
// checks every op's output, and prints one JSON result line (the last line
// of stdout). Layers are measured only from outside the program: the
// benchmark times the public calls it makes, wraps core::guarded_solve
// through CplaOptions::partition_solver, reads the counters and phase
// histograms the program registers in obs::metrics() (reset before every
// op), and reads the public result structs.
//
// Usage:
//   cplabench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   cplabench --list-metrics
//
// Workloads and metrics are documented in METRICS.md.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cplabench/catalog.hpp"
#include "cplabench/report.hpp"
#include "cplabench/trace.hpp"
#include "src/assign/route_io.hpp"
#include "src/assign/validate.hpp"
#include "src/core/critical.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/tila.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "src/gen/synth.hpp"
#include "src/obs/metrics.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace cpla;
using cplabench::median;
using cplabench::OpChecks;
using cplabench::OpLedger;
using cplabench::percentile;
using cplabench::ScopedSpan;
using cplabench::Span;
using cplabench::Tracer;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr int kFlowSetups = 3;     // set-ups per flow run (setup_s is their median)
constexpr int kFlowMinOps = 5;     // timed ops per run, even when --seconds is shorter
constexpr int kEcoEdits = 40;      // edits per stream pass
constexpr double kEcoSecondsPerScript = 2.5;  // one timed script per 2.5 s of --seconds
constexpr int kEcoMinScripts = 3;  // >= 120 resolves, so p90 has >= 12 samples beyond it
constexpr int kTopK = 10;          // paths per report_top_k_paths query
constexpr int kProbeThreads = 4;   // every workload runs at 1 thread; the traced run probes 4
constexpr int kProbeOps = 3;       // 4-thread optimizes per traced flow run
constexpr double kTimingTol = 1.0 + 1e-9;  // core::optimize's own never-worse tolerance

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool list_metrics = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (!a.list_metrics && (!have_workload || a.seed == 0 || a.seconds <= 0.0)) return std::nullopt;
  return a;
}

// ---------------------------------------------------------------------------
// Registry reads and per-layer accumulation

double counter(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}
double hist_sum(const char* name) { return obs::metrics().histogram(name).sum(); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sums per-layer quantities over the traced ops of a run; mean() is the
/// per-op value. Set-up quantities are kept as samples (median reported).
class LayerAcc {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void end_op() { ++ops_; }
  long ops() const { return ops_; }
  double sum(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }
  double mean(const std::string& name) const {
    return ops_ > 0 ? sum(name) / static_cast<double>(ops_) : 0.0;
  }
  std::vector<double> samples(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
  long ops_ = 0;
};

/// Reads one op's registry counters and phase histograms plus its
/// GuardStats into the accumulator (registry was reset before the op).
void capture_op(LayerAcc* acc, const core::GuardStats& g) {
  static const std::pair<const char*, const char*> kCounters[] = {
      {"sdp.calls", "sdp.solve.calls"},
      {"sdp.iterations", "sdp.solve.iterations"},
      {"sdp.failures", "sdp.solve.failures"},
      {"sdp.stalls", "sdp.solve.stalls"},
      {"la.cholesky.factors", "la.cholesky.factors"},
      {"la.cholesky.failures", "la.cholesky.failures"},
      {"la.eigen.calls", "la.eigen.calls"},
      {"ilp.bnb.solves", "ilp.bnb.solves"},
      {"ilp.bnb.nodes", "ilp.bnb.nodes"},
      {"lp.simplex.pivots", "lp.simplex.pivots"},
      {"core.flow.rounds", "core.flow.rounds"},
      {"core.flow.partitions", "core.flow.partitions"},
      {"lagr.solve.calls", "lagr.solve.calls"},
      {"lagr.solve.improved", "lagr.solve.improved"},
      {"timing.elmore.evals", "timing.elmore.evals"},
      {"timing.incremental.hits", "timing.incremental.hits"},
      {"timing.incremental.misses", "timing.incremental.misses"},
      {"sta.update.dirty_nodes", "sta.update.dirty_nodes"},
      {"eco.cache.hits", "eco.cache.hits"},
      {"eco.cache.misses", "eco.cache.misses"},
      {"eco.cache.replay_rejects", "eco.cache.replay_rejects"},
      {"eco.partitions.dirty", "eco.partitions.dirty"},
      {"eco.partitions.clean", "eco.partitions.clean"},
      {"eco.resolve.fallbacks", "eco.resolve.fallbacks"},
  };
  for (const auto& [ours, registered] : kCounters) acc->add(ours, counter(registered));
  static const std::pair<const char*, const char*> kHistSums[] = {
      {"sdp.busy_ms", "sdp.solve.ms"},
      {"core.flow.solve_phase_ms", "phase.core.flow.solve.ms"},
      {"core.flow.commit_ms", "phase.core.flow.commit.ms"},
      {"core.flow.displace_ms", "phase.core.flow.displace.ms"},
      {"core.flow.timing_snapshot_ms", "phase.core.flow.timing_snapshot.ms"},
      {"core.flow.partition_ms", "phase.core.flow.partition.ms"},
  };
  for (const auto& [ours, registered] : kHistSums) acc->add(ours, hist_sum(registered));

  acc->add("core.guard.solves", static_cast<double>(g.solves));
  static const char* kTiers[core::kNumGuardTiers] = {
      "core.guard.tier.primary", "core.guard.tier.retry", "core.guard.tier.ilp",
      "core.guard.tier.net_dp", "core.guard.tier.keep_current"};
  for (int t = 0; t < core::kNumGuardTiers; ++t) {
    acc->add(kTiers[t], static_cast<double>(g.tier_used[t]));
  }
  acc->add("core.guard.numerical_failures", static_cast<double>(g.numerical_failures));
  acc->add("core.guard.iteration_limits", static_cast<double>(g.iteration_limits));
  acc->add("core.guard.validation_rejects", static_cast<double>(g.validation_rejects));
  acc->add("core.guard.commit_rollbacks", static_cast<double>(g.commit_rollbacks));
}

/// Guarded-solve measurements taken inside the partition_solver hook.
/// Called concurrently from the flow's OpenMP solve phase.
class GuardProbe {
 public:
  void record(double wall_ms, double cpu_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    solve_ms_.push_back(wall_ms);
    busy_ms_ += wall_ms;
    cpu_ms_ += cpu_ms;
  }
  /// Moves this op's totals into the accumulator and clears them.
  void drain(LayerAcc* acc, std::vector<double>* samples) {
    std::lock_guard<std::mutex> lock(mu_);
    acc->add("core.guard.busy_ms", busy_ms_);
    acc->add("core.guard.cpu_ms", cpu_ms_);
    samples->insert(samples->end(), solve_ms_.begin(), solve_ms_.end());
    solve_ms_.clear();
    busy_ms_ = cpu_ms_ = 0.0;
  }

 private:
  std::mutex mu_;
  std::vector<double> solve_ms_;
  double busy_ms_ = 0.0;
  double cpu_ms_ = 0.0;
};

/// The flow's default per-partition closure (src/core/flow.cpp) wrapped in
/// a span and a timer. With the arbiter in its default mode (kSdp) the
/// default closure solves with options.engine, and a serial flow gates the
/// SDP solver's inner OpenMP the same way.
core::PartitionSolveFn guard_hook(const core::CplaOptions& options, GuardProbe* probe,
                                  Tracer* tracer) {
  if (options.backend.mode != core::BackendMode::kSdp) {
    std::fprintf(stderr, "cplabench: the guard hook mirrors the default arbiter mode only\n");
    std::exit(2);
  }
  sdp::SdpOptions sdp_opts = options.sdp;
  sdp_opts.parallel = sdp_opts.parallel && options.parallel;
  return [engine = options.engine, sdp_opts, ilp = options.ilp, guard = options.guard, probe,
          tracer](const core::PartitionProblem& p, const assign::AssignState& s,
                  core::GuardStats* stats) {
    ScopedSpan span(*tracer, "core.guarded_solve");
    const double cpu0 = cplabench::thread_cpu_s();
    WallTimer timer;
    core::GuardedSolve out = core::guarded_solve(p, s, engine, sdp_opts, ilp, guard, stats);
    probe->record(timer.milliseconds(), (cplabench::thread_cpu_s() - cpu0) * 1e3);
    return out;
  };
}

// ---------------------------------------------------------------------------
// Output checks

bool same_quality(const core::LaMetrics& a, const core::LaMetrics& b) {
  return a.avg_tcp == b.avg_tcp && a.max_tcp == b.max_tcp && a.via_overflow == b.via_overflow &&
         a.via_count == b.via_count && a.wire_overflow == b.wire_overflow;
}

std::string describe(const core::LaMetrics& m) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "avg %.6f max %.6f ov %ld via %ld wire_ov %ld", m.avg_tcp,
                m.max_tcp, m.via_overflow, m.via_count, m.wire_overflow);
  return buf;
}

void expect_never_worse(OpChecks* checks, const core::LaMetrics& after,
                        const core::LaMetrics& entry) {
  checks->expect(after.avg_tcp <= entry.avg_tcp * kTimingTol &&
                     after.max_tcp <= entry.max_tcp * kTimingTol &&
                     after.wire_overflow + after.via_overflow <=
                         entry.wire_overflow + entry.via_overflow,
                 "result worse than entry: " + describe(after) + " vs " + describe(entry));
}

/// Audits the written routes with the independent checker. Nets the ECO
/// stream added are absent from the netlist, so they get netlist entries
/// rebuilt from their trees' pins; removed nets (empty tree, pins in
/// several cells) no longer exist and are skipped.
void expect_valid_routes(OpChecks* checks, const assign::AssignState& state,
                         const core::LaMetrics& reported) {
  const grid::Design& design = state.design();
  std::optional<grid::Design> extended;
  if (state.num_nets() > static_cast<int>(design.nets.size())) {
    extended.emplace(design);
    for (int net = static_cast<int>(design.nets.size()); net < state.num_nets(); ++net) {
      const route::SegTree& tree = state.tree(net);
      grid::Net n;
      n.name = "eco_added_" + std::to_string(net);
      n.id = net;
      n.pins.push_back({tree.root.x, tree.root.y, tree.root_pin_layer});
      for (const route::SinkAttach& s : tree.sinks) {
        const grid::XY at =
            s.seg_id >= 0 ? tree.segs[static_cast<std::size_t>(s.seg_id)].b : tree.root;
        if (static_cast<int>(n.pins.size()) <= s.pin_index) {
          n.pins.resize(static_cast<std::size_t>(s.pin_index) + 1);
        }
        n.pins[static_cast<std::size_t>(s.pin_index)] = {at.x, at.y, s.pin_layer};
      }
      extended->nets.push_back(std::move(n));
    }
  }
  const grid::Design& audit = extended ? *extended : design;
  std::vector<assign::RoutedNet> routed;
  routed.reserve(static_cast<std::size_t>(state.num_nets()));
  for (int net = 0; net < state.num_nets(); ++net) {
    if (state.tree(net).segs.empty() &&
        audit.nets[static_cast<std::size_t>(net)].distinct_cells().size() > 1) {
      continue;  // removed by the ECO stream
    }
    routed.push_back(
        {audit.nets[static_cast<std::size_t>(net)].name, net, assign::net_wires(state, net)});
  }
  const assign::ValidationReport report = assign::validate_solution(audit, routed);
  checks->expect(report.ok, "validate_solution failed: " +
                                (report.errors.empty() ? std::string("?") : report.errors[0]));
  checks->expect(report.via_overflow == reported.via_overflow,
                 "validator via overflow " + std::to_string(report.via_overflow) +
                     " != reported " + std::to_string(reported.via_overflow));
}

long divergent_nets(const assign::AssignState& a, const assign::AssignState& b) {
  long n = 0;
  const int nets = std::min(a.num_nets(), b.num_nets());
  for (int net = 0; net < nets; ++net) n += a.layers(net) != b.layers(net) ? 1 : 0;
  return n + std::abs(a.num_nets() - b.num_nets());
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads

struct Run {
  explicit Run(const Args& a) : args(a), tracer(a.trace), off(false) {}
  const Args& args;
  Tracer tracer;  // traced ops and set-ups record here (enabled with --trace 1)
  Tracer off;     // untraced ops
  OpLedger ledger;
  LayerAcc layers;
  GuardProbe probe;
  std::vector<double> guard_samples;  // per guarded solve, ms (hook)
  std::vector<double> setup_s;
  std::vector<double> wall_s, cpu_s;  // per op (flows) or per stream pass (ECO)
  std::vector<double> traced_wall_s, untraced_wall_s;
  std::vector<double> resolve_ms;     // per resolve
  std::vector<int> op_spans;          // traced core::optimize spans
  // End-to-end quality: the landed assignment of a flow op, or the mean
  // over every resolve of the ECO stream.
  core::LaMetrics first_quality;
  bool have_quality = false;
  double avg_tcp = 0.0, max_tcp = 0.0, via_overflow = 0.0, via_count = 0.0, wire_overflow = 0.0;

  void set_quality(const core::LaMetrics& m) {
    avg_tcp = m.avg_tcp;
    max_tcp = m.max_tcp;
    via_overflow = static_cast<double>(m.via_overflow);
    via_count = static_cast<double>(m.via_count);
    wire_overflow = static_cast<double>(m.wire_overflow);
  }
  double divergent = 0.0;
  bool fatal = false;

  Tracer& tracer_for(bool traced) { return traced ? tracer : off; }
};

/// generate + prepare; records the set-up layer samples from the registry.
core::Prepared timed_prepare(Run* run, const gen::SynthSpec& spec) {
  grid::Design design = [&] {
    ScopedSpan span(run->tracer, "gen.generate");
    WallTimer t;
    grid::Design d = gen::generate(spec);
    run->layers.sample("gen.generate_ms", t.milliseconds());
    return d;
  }();
  ScopedSpan span(run->tracer, "core.prepare");
  core::Prepared prep = core::prepare(std::move(design));
  run->layers.sample("route.route2d_ms", hist_sum("phase.core.pipeline.route2d.ms"));
  run->layers.sample("route.extract_trees_ms", hist_sum("phase.core.pipeline.extract_trees.ms"));
  run->layers.sample("assign.initial_assign_ms",
                     hist_sum("phase.core.pipeline.initial_assign.ms"));
  run->layers.sample("route.ripup_rounds", counter("route.ripup.rounds"));
  run->layers.sample("route.ripup_reroutes", counter("route.ripup.reroutes"));
  return prep;
}

// ---------------------------------------------------------------------------
// Flow workloads: one op = one core::optimize call on a copy of the entry state

struct FlowSpec {
  const char* suite;
  core::Engine engine;
};

struct FlowSetup {
  core::Prepared prep;
  core::CriticalSet critical;
};

FlowSetup flow_setup(Run* run, const FlowSpec& spec) {
  obs::metrics().reset();
  WallTimer total;
  ScopedSpan span(run->tracer, "setup");
  FlowSetup s{timed_prepare(run, gen::suite_spec(spec.suite)), {}};
  {
    ScopedSpan select(run->tracer, "core.critical.select");
    WallTimer t;
    s.critical = core::select_critical(*s.prep.state, *s.prep.rc, 0.005);
    run->layers.sample("core.critical.select_ms", t.milliseconds());
  }
  run->setup_s.push_back(total.seconds());
  run->layers.sample("core.critical.nets", static_cast<double>(s.critical.nets.size()));
  return s;
}

/// One optimize on a copy of the entry state; returns the landed state.
assign::AssignState flow_op(Run* run, const FlowSpec& spec, const FlowSetup& setup, bool traced,
                            int threads, core::OptimizeResult* result, double* wall,
                            double* cpu) {
  assign::AssignState state = *setup.prep.state;
  core::CplaOptions options;
  options.engine = spec.engine;
  Tracer& tracer = run->tracer_for(traced);
  if (traced) options.partition_solver = guard_hook(options, &run->probe, &tracer);
  set_threads(threads);
  obs::metrics().reset();
  const int op_span = tracer.begin("core.optimize");
  tracer.set_ambient(op_span);
  const double cpu0 = cplabench::process_cpu_s();
  WallTimer timer;
  *result = core::optimize(&state, *setup.prep.rc, setup.critical, options);
  *wall = timer.seconds();
  *cpu = cplabench::process_cpu_s() - cpu0;
  tracer.end(op_span);
  tracer.set_ambient(-1);
  set_threads(1);
  if (traced) run->op_spans.push_back(op_span);
  return state;
}

void run_flow(Run* run, const FlowSpec& spec) {
  set_threads(1);
  std::optional<FlowSetup> setup;
  for (int i = 0; i < kFlowSetups; ++i) {
    FlowSetup s = flow_setup(run, spec);
    if (!setup) setup.emplace(std::move(s));
  }
  const timing::RcTable& rc = *setup->prep.rc;
  const core::LaMetrics entry = core::compute_metrics(*setup->prep.state, rc, setup->critical);

  std::optional<assign::AssignState> first_state;
  // Op 0 warms caches and lazy set-up: it is checked but not timed. In a
  // traced run, untraced and traced ops alternate after it.
  WallTimer clock;
  const int min_ops = run->args.trace ? 2 * kFlowMinOps : kFlowMinOps;
  for (int i = 0; i <= min_ops || clock.seconds() < run->args.seconds; ++i) {
    const bool warmup = i == 0;
    const bool traced = run->args.trace && !warmup && i % 2 == 0;
    Tracer& tracer = run->tracer_for(traced);
    core::OptimizeResult result;
    double wall = 0.0, cpu = 0.0;
    assign::AssignState state =
        flow_op(run, spec, *setup, traced, 1, &result, &wall, &cpu);
    if (traced) {
      capture_op(&run->layers, result.result.guard_stats);
      run->probe.drain(&run->layers, &run->guard_samples);
    }

    // Output checks, outside the timed interval.
    OpChecks checks;
    checks.expect(result.status.is_ok(), "optimize status: " + result.status.to_string());
    core::LaMetrics m;
    {
      ScopedSpan span(tracer, "timing.compute_metrics");
      WallTimer t;
      m = core::compute_metrics(state, rc, setup->critical);
      if (traced) run->layers.add("timing.compute_metrics_ms", t.milliseconds());
    }
    checks.expect(same_quality(m, result.result.metrics),
                  "reported " + describe(result.result.metrics) + " != recomputed " + describe(m));
    expect_never_worse(&checks, m, entry);
    {
      ScopedSpan span(tracer, "assign.validate");
      expect_valid_routes(&checks, state, m);
    }
    if (!run->have_quality) {
      run->first_quality = m;
      run->set_quality(m);
      run->have_quality = true;
      first_state.emplace(state);
    } else {
      checks.expect(same_quality(m, run->first_quality),
                    "op quality " + describe(m) + " != first op " + describe(run->first_quality));
    }
    run->ledger.book(checks);
    std::fprintf(stderr, "cplabench: op %d%s wall %.4f s cpu %.4f s\n", i,
                 warmup ? " (warm-up)" : traced ? " (traced)" : "", wall, cpu);
    if (warmup) {
      clock.reset();
      continue;
    }
    if (traced) run->layers.end_op();
    run->wall_s.push_back(wall);
    run->cpu_s.push_back(cpu);
    run->resolve_ms.push_back(wall * 1e3);
    (traced ? run->traced_wall_s : run->untraced_wall_s).push_back(wall);
  }
  if (!run->args.trace) return;

  // Traced-run diagnostics, after the measured ops.
  {
    // The same input at 4 threads: wall and CPU time, and the nets whose
    // landed layers differ from the 1-thread result.
    ScopedSpan span(run->tracer, "diag.threads4");
    for (int i = 0; i < kProbeOps; ++i) {
      core::OptimizeResult result;
      double wall = 0.0, cpu = 0.0;
      const assign::AssignState state =
          flow_op(run, spec, *setup, false, kProbeThreads, &result, &wall, &cpu);
      run->layers.sample("core.flow.threads4_wall_s", wall);
      run->layers.sample("core.flow.threads4_cpu_s", cpu);
      run->divergent = static_cast<double>(divergent_nets(state, *first_state));
    }
  }
  {
    // TILA on the same prepared state (the comparison point the Lagrangian
    // engine is judged against).
    assign::AssignState state = *setup->prep.state;
    ScopedSpan span(run->tracer, "core.tila");
    WallTimer t;
    core::run_tila(&state, rc, setup->critical);
    run->layers.sample("core.tila.ms", t.milliseconds());
    const core::LaMetrics m = core::compute_metrics(state, rc, setup->critical);
    run->layers.sample("core.tila.avg_tcp", m.avg_tcp);
    run->layers.sample("core.tila.max_tcp", m.max_tcp);
  }
}

// ---------------------------------------------------------------------------
// ECO stream: one client, closed loop; one op = apply + resolve + top-K query

struct EcoWorld {
  core::Prepared prep;
  std::unique_ptr<eco::EcoSession> session;
  sta::CornerSet corners;
  sta::TimingGraph graph;
};

eco::EcoOptions eco_options() {
  eco::EcoOptions opt;  // the bench/eco_incremental configuration
  opt.critical_ratio = 0.03;
  opt.cache_capacity = 8192;
  return opt;
}

std::unique_ptr<EcoWorld> eco_setup(Run* run) {
  obs::metrics().reset();
  WallTimer total;
  ScopedSpan span(run->tracer, "setup");
  gen::SynthSpec spec;  // the bench/eco_incremental generator spec
  spec.name = "eco";
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 200;
  spec.num_layers = 6;
  spec.seed = 7;
  auto world = std::make_unique<EcoWorld>();
  world->prep = timed_prepare(run, spec);
  {
    ScopedSpan open(run->tracer, "core.critical.select");
    WallTimer t;
    world->session = std::make_unique<eco::EcoSession>(
        world->prep.design.get(), world->prep.state.get(), world->prep.rc.get(), eco_options());
    run->layers.sample("core.critical.select_ms", t.milliseconds());
  }
  {
    ScopedSpan build(run->tracer, "sta.build");
    world->corners = sta::CornerSet::single(*world->prep.rc);
    world->graph.build(*world->prep.state, world->corners);
    world->session->attach_sta(&world->graph);
  }
  {
    ScopedSpan warm(run->tracer, "eco.warmup_resolve");
    const core::OptimizeResult r = world->session->resolve();
    if (!r.status.is_ok()) {
      std::fprintf(stderr, "cplabench: warm-up resolve failed: %s\n",
                   r.status.to_string().c_str());
      run->fatal = true;
    }
  }
  run->setup_s.push_back(total.seconds());
  run->layers.sample("core.critical.nets",
                     static_cast<double>(world->session->critical().nets.size()));
  return world;
}

/// Streams edit scripts (script j is seeded 1 + j * kGolden; script 0 is
/// bench/eco_incremental's), each into a freshly set-up session. The
/// scripts are the same for every --seed: their cost differs up to 3x, and
/// seed-drawn scripts moved wall_s by 0.2-0.26 (quartile spread) across
/// seeds, more than the metric's bound can absorb. Stream 0 warms caches
/// and lazy set-up with script 0: it is checked but not timed. Then
/// scripts 0, 1, 2, ... stream, timed: one per kEcoSecondsPerScript of
/// --seconds. The count is fixed rather than
/// clocked because scripts differ in cost, and a clocked run would let
/// machine speed decide which of them are measured. A script's first
/// stream records its quality at every step, and any later stream of it
/// must reproduce that.
/// A traced run follows every timed stream with a traced repeat, so
/// tracing overhead is measured on identical work; per-layer metrics come
/// from the traced repeats.
void run_eco(Run* run) {
  set_threads(1);
  std::map<int, std::vector<core::LaMetrics>> reference;  // per script, per step
  const int scripts = std::max(
      kEcoMinScripts, static_cast<int>(std::lround(run->args.seconds / kEcoSecondsPerScript)));
  std::vector<double> apply_us, guard_p50, guard_p99;
  core::LaMetrics sum;  // over every resolve of the timed streams
  double steps = 0.0;
  int next_script = 0;
  bool warmed = false, repeat_due = false;
  for (int pass = 0;; ++pass) {
    int script_index = 0;
    bool timed = false;
    if (!warmed) {
      warmed = true;
    } else if (repeat_due) {
      script_index = next_script - 1;
      repeat_due = false;
    } else if (next_script < scripts) {
      script_index = next_script++;
      timed = true;
      repeat_due = run->args.trace;
    } else {
      break;
    }
    const bool traced = run->args.trace && pass > 0 && !timed;
    const bool first = reference.count(script_index) == 0;
    Tracer& tracer = run->tracer_for(traced);
    std::unique_ptr<EcoWorld> w = eco_setup(run);
    if (run->fatal) return;
    if (!timed) run->setup_s.pop_back();  // set-up time is sampled on timed streams
    eco::EcoSession& session = *w->session;
    const timing::RcTable& rc = *w->prep.rc;
    const std::uint64_t script_seed = 1 + static_cast<std::uint64_t>(script_index) * kGolden;
    const std::vector<eco::Delta> script = eco::make_edit_script(
        session.state(), session.critical(), {.count = kEcoEdits, .seed = script_seed});
    if (static_cast<int>(script.size()) != kEcoEdits) {
      std::fprintf(stderr, "cplabench: edit script came up short (%zu)\n", script.size());
      run->fatal = true;
      return;
    }
    double pass_wall = 0.0, pass_cpu = 0.0;
    for (int step = 0; step < kEcoEdits; ++step) {
      OpChecks checks;
      obs::metrics().reset();
      const sta::TimingGraph::Stats sta0 = w->graph.stats();
      const int op_span = tracer.begin("eco.op");

      double cpu0 = cplabench::process_cpu_s();
      WallTimer apply_timer;
      Result<int> applied = [&] {
        ScopedSpan span(tracer, "eco.apply");
        return session.apply(script[static_cast<std::size_t>(step)]);
      }();
      const double apply_s = apply_timer.seconds();
      double cpu = cplabench::process_cpu_s() - cpu0;
      checks.expect(applied.is_ok(), "apply: " + (applied.is_ok() ? std::string()
                                                                   : applied.status().to_string()));

      // Untimed: the entry state for the never-worse check, and at sampled
      // steps of a script's first stream a copy for the from-scratch
      // comparison.
      const core::CriticalSet critical = session.critical();
      const core::LaMetrics entry = core::compute_metrics(session.state(), rc, critical);
      const bool sampled =
          first && (step == 0 || step == kEcoEdits / 2 || step == kEcoEdits - 1);
      std::optional<assign::AssignState> before;
      if (sampled) before.emplace(session.state());

      cpu0 = cplabench::process_cpu_s();
      WallTimer resolve_timer;
      core::OptimizeResult result = [&] {
        ScopedSpan span(tracer, "eco.resolve");
        return session.resolve();
      }();
      const double resolve_s = resolve_timer.seconds();
      WallTimer query_timer;
      std::vector<sta::TimingPath> paths = [&] {
        ScopedSpan span(tracer, "sta.report_top_k_paths");
        return w->graph.report_top_k_paths(0, kTopK);
      }();
      const double query_s = query_timer.seconds();
      cpu += cplabench::process_cpu_s() - cpu0;
      tracer.end(op_span);

      pass_wall += apply_s + resolve_s + query_s;
      pass_cpu += cpu;
      if (timed) run->resolve_ms.push_back(resolve_s * 1e3);
      if (traced) {
        capture_op(&run->layers, result.result.guard_stats);
        const sta::TimingGraph::Stats& sta1 = w->graph.stats();
        run->layers.add("sta.update.full", static_cast<double>(sta1.builds - sta0.builds));
        run->layers.add("sta.update.incremental",
                        static_cast<double>(sta1.incremental_updates - sta0.incremental_updates));
        run->layers.add("sta.topk_ms", query_s * 1e3);
        // No hook on ECO resolves (the session installs its own caching
        // solver), so guard time comes from the registry histogram.
        const obs::Histogram& h = obs::metrics().histogram("core.guard.solve.ms");
        run->layers.add("core.guard.busy_ms", h.sum());
        run->layers.add("core.flow.overhead_ms", resolve_s * 1e3 - h.sum());
        if (h.count() > 0) {
          guard_p50.push_back(h.percentile(50.0));
          guard_p99.push_back(h.percentile(99.0));
        }
        apply_us.push_back(apply_s * 1e6);
        run->layers.end_op();
      }

      // Output checks, outside the timed interval.
      checks.expect(result.status.is_ok(), "resolve status: " + result.status.to_string());
      checks.expect(!paths.empty() && paths.size() <= static_cast<std::size_t>(kTopK),
                    "top-K query returned " + std::to_string(paths.size()) + " paths");
      for (std::size_t i = 1; i < paths.size(); ++i) {
        checks.expect(paths[i - 1].slack <= paths[i].slack, "top-K paths not in slack order");
      }
      WallTimer metrics_timer;
      const core::LaMetrics m = core::compute_metrics(session.state(), rc, session.critical());
      if (traced) run->layers.add("timing.compute_metrics_ms", metrics_timer.milliseconds());
      checks.expect(same_quality(m, result.result.metrics),
                    "reported " + describe(result.result.metrics) + " != recomputed " +
                        describe(m));
      expect_never_worse(&checks, m, entry);
      expect_valid_routes(&checks, session.state(), m);
      std::vector<core::LaMetrics>& ref = reference[script_index];
      if (first) {
        ref.push_back(m);
      } else {
        checks.expect(same_quality(m, ref[static_cast<std::size_t>(step)]),
                      "step " + std::to_string(step + 1) +
                          " quality differs from the script's first stream");
      }
      if (timed) {
        sum.avg_tcp += m.avg_tcp;
        sum.max_tcp += m.max_tcp;
        sum.via_overflow += m.via_overflow;
        sum.via_count += m.via_count;
        sum.wire_overflow += m.wire_overflow;
        steps += 1.0;
      }
      if (sampled) {
        // From scratch on a copy of the same pre-resolve state.
        assign::AssignState scratch = *before;
        const core::OptimizeResult full =
            core::optimize(&scratch, rc, critical, eco_options().flow);
        checks.expect(full.status.is_ok() && divergent_nets(scratch, session.state()) == 0,
                      "incremental resolve differs from from-scratch optimize at step " +
                          std::to_string(step));
        if (run->args.trace && pass == 0 && step == 0) {
          ScopedSpan span(run->tracer, "diag.threads4");
          assign::AssignState wide = *before;
          set_threads(kProbeThreads);
          const double cpu_probe = cplabench::process_cpu_s();
          WallTimer probe_timer;
          (void)core::optimize(&wide, rc, critical, eco_options().flow);
          run->layers.sample("core.flow.threads4_wall_s", probe_timer.seconds());
          run->layers.sample("core.flow.threads4_cpu_s", cplabench::process_cpu_s() - cpu_probe);
          set_threads(1);
          run->divergent = static_cast<double>(divergent_nets(wide, scratch));
        }
      }
      run->ledger.book(checks);
    }
    std::fprintf(stderr, "cplabench: stream %d (script %d%s) wall %.4f s cpu %.4f s\n", pass,
                 script_index, timed ? "" : traced ? ", traced repeat" : ", warm-up", pass_wall,
                 pass_cpu);
    if (timed) {
      run->wall_s.push_back(pass_wall);
      run->cpu_s.push_back(pass_cpu);
      run->untraced_wall_s.push_back(pass_wall);
    }
    if (traced) run->traced_wall_s.push_back(pass_wall);
  }
  run->avg_tcp = sum.avg_tcp / steps;
  run->max_tcp = sum.max_tcp / steps;
  run->via_overflow = static_cast<double>(sum.via_overflow) / steps;
  run->via_count = static_cast<double>(sum.via_count) / steps;
  run->wire_overflow = static_cast<double>(sum.wire_overflow) / steps;
  run->layers.sample("eco.apply_us_p50", median(apply_us));
  run->layers.sample("eco.guard_p50", median(guard_p50));
  run->layers.sample("eco.guard_p99", percentile(guard_p99, 99.0));
}

// ---------------------------------------------------------------------------
// Reporting

void report_end_to_end(const Run& run, cplabench::MetricSink* sink) {
  sink->set("setup_s", median(run.setup_s));
  sink->set("wall_s", median(run.wall_s));
  sink->set("cpu_s", median(run.cpu_s));
  sink->set("peak_rss_mb", cplabench::peak_rss_mb());
  sink->set("avg_tcp", run.avg_tcp);
  sink->set("max_tcp", run.max_tcp);
  sink->set("via_overflow", run.via_overflow);
  sink->set("via_count", run.via_count);
  // A tail percentile is reported only where at least ten samples lie
  // beyond it: p90 needs 100 resolves (eco_stream has >= 120). A flow run
  // has a handful, where no percentile above the median qualifies, so its
  // resolve_p90_ms reports the median.
  sink->set("resolve_p50_ms", percentile(run.resolve_ms, 50.0));
  sink->set("resolve_p90_ms",
            percentile(run.resolve_ms, run.resolve_ms.size() >= 100 ? 90.0 : 50.0));
  std::fprintf(stderr,
               "cplabench: %zu set-ups, %zu timed samples, %zu resolves (p90 has %zu beyond)\n",
               run.setup_s.size(), run.wall_s.size(), run.resolve_ms.size(),
               run.resolve_ms.size() / 10);
}

/// The per-layer table: every per-layer metric under the layer (module)
/// it measures.
void print_layer_metrics(const cplabench::MetricSink& sink) {
  static const std::pair<const char*, std::vector<const char*>> kLayers[] = {
      {"sdp", {"sdp."}},
      {"la", {"la."}},
      {"ilp, lp", {"ilp.", "lp.", "core.guard.ilp_rescue_frac"}},
      {"core.solve_guard", {"core.guard."}},
      {"core.flow", {"core.flow."}},
      {"route, assign, gen, core.critical", {"route.", "assign.", "gen.", "core.critical."}},
      {"lagr, core.tila", {"lagr.", "core.tila."}},
      {"timing", {"timing."}},
      {"sta", {"sta."}},
      {"eco", {"eco."}},
      {"trace", {"trace."}},
  };
  std::fprintf(stderr, "\nper-layer metrics (per op unless METRICS.md says otherwise)\n");
  std::vector<std::string> shown;
  for (const auto& [layer, prefixes] : kLayers) {
    std::fprintf(stderr, "[%s]\n", layer);
    for (const auto& [name, value] : sink.values()) {
      const bool mine = std::any_of(prefixes.begin(), prefixes.end(), [&](const char* p) {
        return name.rfind(p, 0) == 0;
      });
      if (!mine || std::find(shown.begin(), shown.end(), name) != shown.end()) continue;
      shown.push_back(name);
      std::fprintf(stderr, "  %-36s %16.6g\n", name.c_str(), value);
    }
  }
}

void report_per_layer(const Run& run, bool eco_stream, cplabench::MetricSink* sink,
                      int* nesting_violations) {
  const LayerAcc& L = run.layers;
  static const char* kMeans[] = {
      "sdp.calls", "sdp.iterations", "sdp.failures", "sdp.stalls", "sdp.busy_ms",
      "la.cholesky.factors", "la.cholesky.failures", "la.eigen.calls", "core.guard.solves",
      "core.guard.busy_ms", "core.guard.cpu_ms", "core.guard.tier.primary",
      "core.guard.tier.retry", "core.guard.tier.ilp", "core.guard.tier.net_dp",
      "core.guard.tier.keep_current", "core.guard.numerical_failures",
      "core.guard.iteration_limits", "core.guard.validation_rejects",
      "core.guard.commit_rollbacks", "ilp.bnb.solves", "ilp.bnb.nodes", "lp.simplex.pivots",
      "core.flow.rounds", "core.flow.partitions", "core.flow.solve_phase_ms",
      "core.flow.commit_ms", "core.flow.displace_ms", "core.flow.timing_snapshot_ms",
      "core.flow.partition_ms", "lagr.solve.calls", "lagr.solve.improved",
      "timing.elmore.evals", "timing.compute_metrics_ms", "sta.update.incremental",
      "sta.update.full", "sta.update.dirty_nodes", "sta.topk_ms", "eco.cache.replay_rejects",
      "eco.partitions.dirty", "eco.partitions.clean", "eco.resolve.fallbacks",
  };
  for (const char* name : kMeans) sink->set(name, L.mean(name));
  static const char* kSetupMedians[] = {
      "route.route2d_ms", "route.ripup_rounds",      "route.ripup_reroutes",
      "route.extract_trees_ms", "assign.initial_assign_ms", "gen.generate_ms",
      "core.critical.select_ms", "core.critical.nets", "core.tila.ms",
      "core.flow.threads4_wall_s", "core.flow.threads4_cpu_s",
      "core.tila.avg_tcp", "core.tila.max_tcp", "eco.apply_us_p50",
  };
  for (const char* name : kSetupMedians) sink->set(name, median(L.samples(name)));

  sink->set("sdp.iterations_per_call", ratio(L.sum("sdp.iterations"), L.sum("sdp.calls")));
  sink->set("la.cholesky.fail_frac",
            ratio(L.sum("la.cholesky.failures"), L.sum("la.cholesky.factors")));
  sink->set("core.guard.primary_accept_frac",
            ratio(L.sum("core.guard.tier.primary"), L.sum("core.guard.solves")));
  sink->set("core.guard.ilp_rescue_frac",
            ratio(L.sum("core.guard.tier.ilp"), L.sum("ilp.bnb.solves")));
  sink->set("core.flow.solver_utilization",
            ratio(L.sum("core.guard.busy_ms"), L.sum("core.flow.solve_phase_ms")));
  sink->set("core.flow.thread_divergent_nets", run.divergent);
  sink->set("assign.wire_overflow", run.wire_overflow);
  sink->set("lagr.improved_frac", ratio(L.sum("lagr.solve.improved"), L.sum("lagr.solve.calls")));
  const double t_lookups = L.sum("timing.incremental.hits") + L.sum("timing.incremental.misses");
  sink->set("timing.incremental.lookups", L.mean("timing.incremental.hits") +
                                              L.mean("timing.incremental.misses"));
  sink->set("timing.incremental.hit_frac", ratio(L.sum("timing.incremental.hits"), t_lookups));
  const double e_lookups = L.sum("eco.cache.hits") + L.sum("eco.cache.misses");
  sink->set("eco.cache.lookups", L.mean("eco.cache.hits") + L.mean("eco.cache.misses"));
  sink->set("eco.cache.hit_frac", ratio(L.sum("eco.cache.hits"), e_lookups));
  if (eco_stream) {
    sink->set("core.guard.solve_p50_ms", median(L.samples("eco.guard_p50")));
    sink->set("core.guard.solve_p99_ms", median(L.samples("eco.guard_p99")));
  } else {
    sink->set("core.guard.solve_p50_ms", percentile(run.guard_samples, 50.0));
    sink->set("core.guard.solve_p99_ms", percentile(run.guard_samples, 99.0));
  }

  // The trace: self times, nesting check, per-layer table.
  const std::vector<Span> spans = run.tracer.spans();
  const cplabench::SelfTimes self = cplabench::compute_self_times(spans);
  *nesting_violations = self.violations;
  if (!eco_stream) {
    // The flow's own time: optimize minus the guarded solves nested in it.
    double overhead_ms = 0.0;
    for (int id : run.op_spans) {
      overhead_ms += static_cast<double>(self.self_ns[static_cast<std::size_t>(id)]) * 1e-6;
    }
    sink->set("core.flow.overhead_ms",
              run.op_spans.empty() ? 0.0 : overhead_ms / static_cast<double>(run.op_spans.size()));
  } else {
    sink->set("core.flow.overhead_ms", L.mean("core.flow.overhead_ms"));
  }
  sink->set("trace.ops", static_cast<double>(L.ops()));
  sink->set("trace.spans", static_cast<double>(spans.size()));
  sink->set("trace.nesting_violations", self.violations);
  sink->set("trace.overhead_s", median(run.traced_wall_s) - median(run.untraced_wall_s));

  std::fprintf(stderr, "\nper-layer spans (self = duration minus time covered by child spans)\n");
  cplabench::print_layer_table(stderr, cplabench::layer_table(spans, self));
  print_layer_metrics(*sink);
  std::fprintf(stderr, "tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %.4f s\n",
               median(run.traced_wall_s), median(run.untraced_wall_s),
               median(run.traced_wall_s) - median(run.untraced_wall_s));
  if (!run.args.trace_out.empty() && !cplabench::write_chrome_trace(run.args.trace_out, spans)) {
    std::fprintf(stderr, "cplabench: cannot write %s\n", run.args.trace_out.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: cplabench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] | --list-metrics\n");
    return 2;
  }
  if (args->list_metrics) {
    for (const auto& d : cplabench::end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const auto& d : cplabench::per_layer_metrics()) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    return 0;
  }
  set_log_level(LogLevel::kError);

  static const std::map<std::string, FlowSpec> kFlows = {
      {"flow_sdp_t1", {"newblue1", core::Engine::kSdp}},
      {"lagr_large", {"bigblue4", core::Engine::kLagr}},
  };
  const bool eco_stream = args->workload == "eco_stream";
  auto flow = kFlows.find(args->workload);
  if (!eco_stream && flow == kFlows.end()) {
    std::fprintf(stderr, "cplabench: unknown workload %s\n", args->workload.c_str());
    return 2;
  }

  // Every workload's input is fixed; the seed is recorded, not used (see
  // METRICS.md, "What --seed changes").
  std::fprintf(stderr, "cplabench: workload %s, seed %llu\n", args->workload.c_str(),
               static_cast<unsigned long long>(args->seed));
  Run run(*args);
  if (eco_stream) {
    run_eco(&run);
  } else {
    run_flow(&run, flow->second);
  }
  if (run.fatal) return 1;

  cplabench::MetricSink sink(args->trace ? cplabench::per_layer_metrics()
                                         : cplabench::end_to_end_metrics());
  int nesting_violations = 0;
  if (args->trace) {
    report_per_layer(run, eco_stream, &sink,
                     &nesting_violations);
  } else {
    report_end_to_end(run, &sink);
  }
  for (const std::string& e : sink.errors()) std::fprintf(stderr, "cplabench: %s\n", e.c_str());
  for (const std::string& m : sink.missing()) {
    std::fprintf(stderr, "cplabench: metric %s not measured\n", m.c_str());
  }
  const bool correct = run.ledger.failed() == 0 && nesting_violations == 0 &&
                       sink.errors().empty() && sink.missing().empty();
  std::printf("%s\n", sink.json(correct, run.ledger.attempted(), run.ledger.failed()).c_str());
  return 0;
}
