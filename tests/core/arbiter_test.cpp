// BackendArbiter policy units (size, deadline, mode forcing, kIlp
// passthrough, outcome tallies) plus the end-to-end hybrid flow: both
// backends exercised through core::optimize(), deterministic across
// repeated runs, never worse than entry.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/backend_arbiter.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"

namespace cpla::core {
namespace {

PartitionProblem problem_with_vars(int n) {
  PartitionProblem p;
  p.vars.resize(static_cast<std::size_t>(n));
  return p;
}

GuardedSolve solve_at_tier(GuardTier tier) {
  GuardedSolve s;
  s.tier = tier;
  return s;
}

TEST(BackendArbiterTest, SdpModeReturnsBaseUntouched) {
  ArbiterOptions opt;  // mode defaults to kSdp
  const BackendArbiter arbiter(opt);
  const GuardOptions guard;
  EXPECT_EQ(arbiter.choose(problem_with_vars(1000), guard, Engine::kSdp), Engine::kSdp);
  EXPECT_EQ(arbiter.choose(problem_with_vars(1000), guard, Engine::kLagr), Engine::kLagr);
}

TEST(BackendArbiterTest, IlpBaseIsNeverOverridden) {
  for (BackendMode mode : {BackendMode::kSdp, BackendMode::kLagr, BackendMode::kHybrid}) {
    ArbiterOptions opt;
    opt.mode = mode;
    const BackendArbiter arbiter(opt);
    EXPECT_EQ(arbiter.choose(problem_with_vars(1000), GuardOptions{}, Engine::kIlp),
              Engine::kIlp)
        << "mode " << to_string(mode);
  }
}

TEST(BackendArbiterTest, LagrModeForcesLagrEverywhere) {
  ArbiterOptions opt;
  opt.mode = BackendMode::kLagr;
  const BackendArbiter arbiter(opt);
  EXPECT_EQ(arbiter.choose(problem_with_vars(1), GuardOptions{}, Engine::kSdp), Engine::kLagr);
}

TEST(BackendArbiterTest, HybridRoutesBySizeThreshold) {
  ArbiterOptions opt;
  opt.mode = BackendMode::kHybrid;
  const BackendArbiter arbiter(opt);
  const GuardOptions guard;  // no deadline
  EXPECT_EQ(arbiter.choose(problem_with_vars(opt.lagr_min_vars - 1), guard, Engine::kSdp),
            Engine::kSdp);
  EXPECT_EQ(arbiter.choose(problem_with_vars(opt.lagr_min_vars), guard, Engine::kSdp),
            Engine::kLagr);
}

TEST(BackendArbiterTest, HybridRoutesByDeadlinePressure) {
  ArbiterOptions opt;
  opt.mode = BackendMode::kHybrid;
  const BackendArbiter arbiter(opt);
  GuardOptions deadline;
  deadline.deadline_ms = 10.0;
  EXPECT_EQ(arbiter.choose(problem_with_vars(opt.deadline_min_vars), deadline, Engine::kSdp),
            Engine::kLagr);
  EXPECT_EQ(
      arbiter.choose(problem_with_vars(opt.deadline_min_vars - 1), deadline, Engine::kSdp),
      Engine::kSdp);
  // Same sizes without a deadline stay on the SDP tier.
  EXPECT_EQ(arbiter.choose(problem_with_vars(opt.deadline_min_vars), GuardOptions{},
                           Engine::kSdp),
            Engine::kSdp);
}

TEST(BackendArbiterTest, RecordTalliesPerBackendEscalations) {
  ArbiterOptions opt;
  opt.mode = BackendMode::kHybrid;
  BackendArbiter arbiter(opt);
  arbiter.record(Engine::kSdp, solve_at_tier(GuardTier::kPrimary));
  arbiter.record(Engine::kSdp, solve_at_tier(GuardTier::kRetry));
  arbiter.record(Engine::kLagr, solve_at_tier(GuardTier::kPrimary));
  arbiter.record(Engine::kLagr, solve_at_tier(GuardTier::kNetDp));
  const ArbiterStats& s = arbiter.stats();
  EXPECT_EQ(s.sdp_chosen, 2);
  EXPECT_EQ(s.lagr_chosen, 2);
  EXPECT_EQ(s.sdp_escalations, 1);
  EXPECT_EQ(s.lagr_escalations, 1);

  // The tally never feeds back into the choice: even a run of escalations
  // leaves a below-threshold partition on the SDP tier.
  for (int i = 0; i < 64; ++i) arbiter.record(Engine::kSdp, solve_at_tier(GuardTier::kNetDp));
  EXPECT_EQ(arbiter.choose(problem_with_vars(opt.lagr_min_vars - 1), GuardOptions{},
                           Engine::kSdp),
            Engine::kSdp);
}

TEST(BackendArbiterTest, StatsMergeAccumulates) {
  ArbiterStats a{1, 2, 3, 4};
  const ArbiterStats b{10, 20, 30, 40};
  a.merge(b);
  EXPECT_EQ(a.sdp_chosen, 11);
  EXPECT_EQ(a.lagr_chosen, 22);
  EXPECT_EQ(a.sdp_escalations, 33);
  EXPECT_EQ(a.lagr_escalations, 44);
}

// --- End-to-end: the hybrid arbiter inside core::optimize() -------------

class ArbiterFlowTest : public ::testing::Test {
 protected:
  static CplaOptions hybrid_options() {
    CplaOptions opt;
    opt.max_rounds = 2;
    // A raised partition cap plus a lowered size cutoff puts partitions on
    // both sides of the threshold on a small instance.
    opt.partition.max_segments = 48;
    opt.backend.mode = BackendMode::kHybrid;
    opt.backend.lagr_min_vars = 16;
    return opt;
  }

  static std::vector<std::vector<int>> all_layers(const assign::AssignState& state) {
    std::vector<std::vector<int>> out;
    for (int net = 0; net < state.num_nets(); ++net) out.push_back(state.layers(net));
    return out;
  }
};

TEST_F(ArbiterFlowTest, HybridExercisesBothBackendsAndStaysNeverWorse) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 400;
  spec.num_layers = 6;
  spec.seed = 77;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.02);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, hybrid_options());
  EXPECT_TRUE(out.status.is_ok());
  EXPECT_GT(out.result.arbiter_stats.lagr_chosen, 0) << "no partition routed to lagr";
  EXPECT_GT(out.result.arbiter_stats.sdp_chosen, 0) << "no partition stayed on sdp";

  const LaMetrics after = compute_metrics(*bench.state, *bench.rc, critical);
  EXPECT_LE(after.avg_tcp, before.avg_tcp * (1.0 + 1e-9));
  EXPECT_LE(after.max_tcp, before.max_tcp * (1.0 + 1e-9));
  EXPECT_LE(after.wire_overflow, before.wire_overflow);
  EXPECT_LE(after.via_overflow, before.via_overflow);
}

TEST_F(ArbiterFlowTest, HybridFlowIsDeterministicAcrossRuns) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 400;
  spec.num_layers = 6;
  spec.seed = 78;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.02);
  const std::vector<std::vector<int>> entry = all_layers(*bench.state);

  const OptimizeResult first = optimize(bench.state.get(), *bench.rc, critical, hybrid_options());
  const std::vector<std::vector<int>> landed = all_layers(*bench.state);

  for (int net = 0; net < bench.state->num_nets(); ++net) {
    bench.state->set_layers(net, std::vector<int>(entry[net]));
  }
  const OptimizeResult second =
      optimize(bench.state.get(), *bench.rc, critical, hybrid_options());

  EXPECT_EQ(first.result.arbiter_stats.sdp_chosen, second.result.arbiter_stats.sdp_chosen);
  EXPECT_EQ(first.result.arbiter_stats.lagr_chosen, second.result.arbiter_stats.lagr_chosen);
  EXPECT_EQ(all_layers(*bench.state), landed) << "hybrid flow not replayable";
}

}  // namespace
}  // namespace cpla::core
