#include "src/core/backend_arbiter.hpp"

#include "src/obs/metrics.hpp"

namespace cpla::core {

const char* to_string(BackendMode mode) {
  switch (mode) {
    case BackendMode::kSdp: return "sdp";
    case BackendMode::kLagr: return "lagr";
    case BackendMode::kHybrid: return "hybrid";
  }
  return "?";
}

void ArbiterStats::merge(const ArbiterStats& other) {
  sdp_chosen += other.sdp_chosen;
  lagr_chosen += other.lagr_chosen;
  sdp_escalations += other.sdp_escalations;
  lagr_escalations += other.lagr_escalations;
}

Engine BackendArbiter::choose(const PartitionProblem& problem, const GuardOptions& guard,
                              Engine base) const {
  if (base == Engine::kIlp) return base;
  if (options_.mode == BackendMode::kSdp) return base;
  if (options_.mode == BackendMode::kLagr) return Engine::kLagr;

  const int vars = static_cast<int>(problem.vars.size());
  if (vars >= options_.lagr_min_vars) return Engine::kLagr;
  if (guard.deadline_ms > 0.0 && vars >= options_.deadline_min_vars) return Engine::kLagr;
  return Engine::kSdp;
}

void BackendArbiter::record(Engine chosen, const GuardedSolve& solve) {
  static obs::Counter& sdp_chosen = obs::metrics().counter("lagr.arbiter.sdp_chosen");
  static obs::Counter& lagr_chosen = obs::metrics().counter("lagr.arbiter.lagr_chosen");
  static obs::Counter& escalated = obs::metrics().counter("lagr.arbiter.escalations");
  const bool escalation = solve.tier != GuardTier::kPrimary;
  if (chosen == Engine::kLagr) {
    ++stats_.lagr_chosen;
    lagr_chosen.add();
    if (escalation) ++stats_.lagr_escalations;
  } else {
    ++stats_.sdp_chosen;
    sdp_chosen.add();
    if (escalation) ++stats_.sdp_escalations;
  }
  if (escalation) escalated.add();
}

}  // namespace cpla::core
