#include "src/core/flow.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/assign/route_io.hpp"
#include "src/assign/validate.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/tila.hpp"
#include "src/gen/synth.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cpla::core {
namespace {

Prepared small_bench(std::uint64_t seed = 61) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = seed;
  return prepare(gen::generate(spec));
}

TEST(Flow, CplaImprovesCriticalTiming) {
  Prepared bench = small_bench();
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  CplaOptions opt;
  const CplaResult result = run_cpla(bench.state.get(), *bench.rc, critical, opt);

  EXPECT_GT(result.partitions_solved, 0);
  EXPECT_LE(result.metrics.avg_tcp, before.avg_tcp * 1.0001);
  EXPECT_LE(result.metrics.max_tcp, before.max_tcp * 1.0001);
  EXPECT_GT(result.metrics.avg_tcp, 0.0);
  // Wire capacity must not regress into new overflow.
  EXPECT_LE(result.metrics.wire_overflow, before.wire_overflow);
}

TEST(Flow, TilaImprovesWeightedDelay) {
  Prepared bench = small_bench(62);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  const TilaResult result = run_tila(bench.state.get(), *bench.rc, critical);
  EXPECT_GE(result.iterations_run, 1);

  const LaMetrics after = compute_metrics(*bench.state, *bench.rc, critical);
  EXPECT_LE(after.avg_tcp, before.avg_tcp * 1.02);  // weighted-sum objective, mild guarantee
  EXPECT_GT(after.avg_tcp, 0.0);
}

TEST(Flow, CplaBeatsOrMatchesTilaOnMaxTiming) {
  // The paper's headline: on the same released set, the SDP flow controls
  // Max(Tcp) at least as well as TILA. Run both from identical states.
  Prepared for_tila = small_bench(63);
  Prepared for_cpla = small_bench(63);
  const CriticalSet critical = select_critical(*for_tila.state, *for_tila.rc, 0.03);

  run_tila(for_tila.state.get(), *for_tila.rc, critical);
  const LaMetrics tila = compute_metrics(*for_tila.state, *for_tila.rc, critical);

  run_cpla(for_cpla.state.get(), *for_cpla.rc, critical);
  const LaMetrics cpla = compute_metrics(*for_cpla.state, *for_cpla.rc, critical);

  EXPECT_LE(cpla.max_tcp, tila.max_tcp * 1.05);
  EXPECT_LE(cpla.avg_tcp, tila.avg_tcp * 1.05);
}

TEST(Flow, IlpEngineRunsOnTinyBenchmark) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 16;
  spec.num_nets = 120;
  spec.num_layers = 4;
  spec.seed = 64;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  CplaOptions opt;
  opt.engine = Engine::kIlp;
  opt.partition.max_segments = 6;
  opt.max_rounds = 1;
  opt.ilp.time_limit_s = 10.0;
  const CplaResult result = run_cpla(bench.state.get(), *bench.rc, critical, opt);
  EXPECT_LE(result.metrics.avg_tcp, before.avg_tcp * 1.0001);
}

TEST(Flow, MetricsOverEmptyCriticalSet) {
  Prepared bench = small_bench(65);
  CriticalSet empty;
  empty.released.assign(bench.state->num_nets(), 0);
  const LaMetrics m = compute_metrics(*bench.state, *bench.rc, empty);
  EXPECT_EQ(m.avg_tcp, 0.0);
  EXPECT_EQ(m.max_tcp, 0.0);
  const CplaResult r = run_cpla(bench.state.get(), *bench.rc, empty, {});
  EXPECT_EQ(r.partitions_solved, 0);
}

TEST(Flow, CriticalRatioScalesReleasedCount) {
  Prepared bench = small_bench(66);
  const CriticalSet small = select_critical(*bench.state, *bench.rc, 0.01);
  const CriticalSet large = select_critical(*bench.state, *bench.rc, 0.05);
  EXPECT_LT(small.nets.size(), large.nets.size());
  EXPECT_EQ(small.nets.size(), 3u);   // ceil(0.01 * 300)
  EXPECT_EQ(large.nets.size(), 15u);  // ceil(0.05 * 300)
}

std::vector<std::vector<int>> all_layers(const assign::AssignState& state) {
  std::vector<std::vector<int>> out;
  out.reserve(static_cast<std::size_t>(state.num_nets()));
  for (int net = 0; net < state.num_nets(); ++net) out.push_back(state.layers(net));
  return out;
}

/// Audits the landed assignment with the independent checker (written out
/// and re-parsed, as cpla_cli --validate does).
assign::ValidationReport validate(const Prepared& bench) {
  std::stringstream buf;
  assign::write_routes(*bench.state, buf);
  const auto parsed = assign::read_routes(buf, bench.design->grid);
  if (!parsed) {
    assign::ValidationReport unparsable;
    unparsable.fail("solution unparsable");
    return unparsable;
  }
  return assign::validate_solution(*bench.design, *parsed);
}

CplaOptions short_run() {
  CplaOptions opt;
  opt.max_rounds = 2;
  opt.max_refine_rounds = 1;
  return opt;
}

// The commit granularity of the Gauss-Seidel sweep: one partition per
// commit, a fixed batch of 16, and the Jacobi ablation (every partition
// solved from one snapshot). Each lands on a valid, never-worse state.
TEST(Flow, CommitGranularitiesValidateAndNeverRegress) {
  struct Mode {
    const char* name;
    int commit_batch;
    bool jacobi;
  };
  for (const Mode mode : {Mode{"commit_batch=1", 1, false}, Mode{"commit_batch=16", 16, false},
                          Mode{"jacobi", 0, true}}) {
    SCOPED_TRACE(mode.name);
    Prepared bench = small_bench(67);
    const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
    const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

    CplaOptions opt = short_run();
    opt.commit_batch = mode.commit_batch;
    opt.jacobi_commits = mode.jacobi;
    const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, opt);
    EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
    EXPECT_GT(out.result.partitions_solved, 0);

    const LaMetrics& after = out.result.metrics;
    EXPECT_LE(after.avg_tcp, before.avg_tcp * (1.0 + 1e-9));
    EXPECT_LE(after.max_tcp, before.max_tcp * (1.0 + 1e-9));
    EXPECT_LE(after.wire_overflow + after.via_overflow,
              before.wire_overflow + before.via_overflow);

    const assign::ValidationReport report = validate(bench);
    EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());
    EXPECT_EQ(report.wire_overflow, after.wire_overflow);
    EXPECT_EQ(report.via_overflow, after.via_overflow);
  }
}

// At a fixed commit batch the partition loop's thread count must not leak
// into the result: a serial run and a 4-thread run land on the same bits.
TEST(Flow, SerialAndParallelRunsAreBitIdenticalAtFixedCommitBatch) {
  Prepared serial_bench = small_bench(68);
  Prepared parallel_bench = small_bench(68);
  const CriticalSet critical = select_critical(*serial_bench.state, *serial_bench.rc, 0.03);

  CplaOptions serial_opt = short_run();
  serial_opt.commit_batch = 8;  // not the thread count, so auto batching cannot mask it
  serial_opt.parallel = false;
  const CplaResult serial =
      run_cpla(serial_bench.state.get(), *serial_bench.rc, critical, serial_opt);

  CplaOptions parallel_opt = serial_opt;
  parallel_opt.parallel = true;
#ifdef _OPENMP
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const CplaResult parallel =
      run_cpla(parallel_bench.state.get(), *parallel_bench.rc, critical, parallel_opt);
#ifdef _OPENMP
  omp_set_num_threads(threads_before);
#endif

  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.partitions_solved, parallel.partitions_solved);
  EXPECT_EQ(serial.metrics.avg_tcp, parallel.metrics.avg_tcp);
  EXPECT_EQ(serial.metrics.max_tcp, parallel.metrics.max_tcp);
  EXPECT_EQ(serial.metrics.via_overflow, parallel.metrics.via_overflow);
  EXPECT_EQ(serial.metrics.via_count, parallel.metrics.via_count);
  EXPECT_EQ(serial.metrics.wire_overflow, parallel.metrics.wire_overflow);
  EXPECT_EQ(all_layers(*serial_bench.state), all_layers(*parallel_bench.state));
}

}  // namespace
}  // namespace cpla::core
