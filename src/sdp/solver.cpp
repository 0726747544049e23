#include "src/sdp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/la/lu.hpp"
#include "src/obs/metrics.hpp"
#include "src/sdp/schur.hpp"
#include "src/util/check.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace cpla::sdp {

const char* to_string(SdpStatus status) {
  switch (status) {
    case SdpStatus::kOptimal: return "optimal";
    case SdpStatus::kStalled: return "stalled";
    case SdpStatus::kIterLimit: return "iteration-limit";
    case SdpStatus::kNumerical: return "numerical-failure";
    case SdpStatus::kDeadline: return "deadline-exceeded";
    case SdpStatus::kBadProblem: return "bad-problem";
  }
  return "?";
}

namespace {

/// tr(A_i W) for a general (possibly nonsymmetric) W.
double constraint_trace(const SdpProblem& p, int i, const BlockMatrix& w) {
  double sum = 0.0;
  for (const auto& e : p.constraint(i).entries) {
    if (w.is_dense(e.block)) {
      const auto& wb = w.dense(e.block);
      sum += (e.row == e.col) ? e.value * wb(e.row, e.row)
                              : e.value * (wb(e.row, e.col) + wb(e.col, e.row));
    } else {
      sum += e.value * w.diag(e.block)[e.row];
    }
  }
  return sum;
}

/// Largest alpha in (0, 1] with base + alpha*dir positive definite, times
/// `fraction`. Backtracking on the Cholesky test with one scratch copy:
/// each try moves the trial in place by the alpha delta. A try checks the
/// diag (slack) blocks first and factors the dense blocks only when every
/// slack is positive, into per-block buffers reused across tries. Its
/// verdict is the one BlockCholesky::factor would give, so the tries and
/// the accepted step are too.
double max_step(const BlockMatrix& base, const BlockMatrix& dir, double fraction,
                bool parallel) {
  BlockMatrix trial = base;
  std::vector<la::Matrix> factors(trial.num_blocks());
  const auto dense_blocks_factor = [&] {
    for (std::size_t k = 0; k < trial.num_blocks(); ++k) {
      if (trial.is_dense(k) && !la::Cholesky::factor_into(trial.dense(k), &factors[k])) {
        return false;
      }
    }
    return true;
  };
  double applied = 0.0;
  double alpha = 1.0;
  for (int tries = 0; tries < 60; ++tries) {
    const double step = fraction * alpha;
    trial.axpy(step - applied, dir, parallel);
    applied = step;
    if (diag_blocks_positive(trial) && dense_blocks_factor()) return step;
    alpha *= 0.7;
  }
  return 0.0;
}

/// Wall time of the solver's hot phases, summed over one solve's
/// iterations and recorded once per solve.
struct PhaseTimes {
  double schur_assembly_ms = 0.0;
  double schur_factor_ms = 0.0;
  double direction_ms = 0.0;
  double step_search_ms = 0.0;
};

}  // namespace

static SdpResult solve_impl(const SdpProblem& p, const SdpOptions& opt, PhaseTimes* times) {
  const int m = p.num_constraints();
  const int n_total = total_dim(p.structure());
  const BlockMatrix c = p.objective_matrix();
  const la::Vector b = p.rhs_vector();
  const double b_norm = la::norm2(b);
  const double c_norm = std::max(1.0, c.frob_norm());

  // Infeasible start: scaled identities sized to the data magnitudes.
  double max_b = 1.0;
  for (double v : b) max_b = std::max(max_b, std::fabs(v));
  const double tau_p = std::max({10.0, std::sqrt(static_cast<double>(n_total)), 2.0 * max_b});
  const double tau_d = std::max({10.0, std::sqrt(static_cast<double>(n_total)),
                                 2.0 * c.max_abs()});

  SdpResult res;
  res.x = BlockMatrix::scaled_identity(p.structure(), tau_p);
  res.z = BlockMatrix::scaled_identity(p.structure(), tau_d);
  res.y.assign(static_cast<std::size_t>(m), 0.0);

  double prev_gap = std::numeric_limits<double>::infinity();
  int stall_count = 0;
  WallTimer timer;

  if (CPLA_FAULT_POINT("sdp.solve.numerical")) {
    res.status = SdpStatus::kNumerical;
    return res;
  }
  if (CPLA_FAULT_POINT("sdp.solve.iterlimit")) {
    res.status = SdpStatus::kIterLimit;
    return res;
  }

  SchurLayout schur_layout(p);
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (opt.time_limit_ms > 0.0 && timer.milliseconds() > opt.time_limit_ms) {
      res.status = SdpStatus::kDeadline;
      return res;
    }

    // Residuals.
    la::Vector ax = p.apply_all(res.x);
    la::Vector rp(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) rp[i] = b[i] - ax[i];
    BlockMatrix rd = c;  // Rd = C - A'(y) - Z
    la::Vector neg_y = res.y;
    for (double& v : neg_y) v = -v;
    p.accumulate_adjoint(neg_y, &rd);
    rd.axpy(-1.0, res.z);

    const double gap = res.x.inner(res.z);
    res.primal_obj = c.inner(res.x);
    res.dual_obj = la::dot(b, res.y);
    res.primal_infeas = la::norm2(rp) / (1.0 + b_norm);
    res.dual_infeas = rd.frob_norm() / c_norm;
    res.rel_gap = std::fabs(gap) / (1.0 + std::fabs(res.primal_obj) + std::fabs(res.dual_obj));

    // A non-finite iterate means the numerics have already left the rails;
    // no further step can recover, so report instead of looping on NaNs.
    if (!std::isfinite(gap) || !std::isfinite(res.primal_obj) ||
        !std::isfinite(res.primal_infeas) || !std::isfinite(res.dual_infeas)) {
      res.status = SdpStatus::kNumerical;
      return res;
    }

    if (res.primal_infeas < opt.tol && res.dual_infeas < opt.tol && res.rel_gap < opt.tol) {
      res.status = SdpStatus::kOptimal;
      return res;
    }
    if (gap > prev_gap * 0.9999 && res.rel_gap < 1e-4) {
      if (++stall_count >= 8) {
        res.status = SdpStatus::kStalled;
        return res;
      }
    } else {
      stall_count = 0;
    }
    prev_gap = gap;

    auto zchol = BlockCholesky::factor(res.z, opt.parallel);
    if (!zchol) {
      res.status = SdpStatus::kNumerical;
      return res;
    }
    const BlockMatrix zinv = zchol->inverse();

    // Schur complement M_ij = tr(A_i Z^{-1} A_j X), assembled sparsely per
    // entry pair from the compiled layout (src/sdp/schur.hpp).
    WallTimer phase;
    const la::Matrix schur = schur_layout.assemble(zinv, res.x, opt.parallel);
    times->schur_assembly_ms += phase.milliseconds();

    phase.reset();
    std::optional<la::Cholesky> mchol;
    double ridge = 0.0;
    double max_diag = 1e-12;
    for (int i = 0; i < m; ++i) max_diag = std::max(max_diag, schur(i, i));
    for (int tries = 0; tries < 12 && !mchol; ++tries) {
      if (ridge > 0.0) {
        la::Matrix reg = schur;
        for (int i = 0; i < m; ++i) reg(i, i) += ridge;
        mchol = la::Cholesky::factor(reg);
      } else {
        mchol = la::Cholesky::factor(schur);
      }
      ridge = (ridge == 0.0) ? 1e-12 * max_diag : ridge * 100.0;
    }
    times->schur_factor_ms += phase.milliseconds();
    if (!mchol) {
      res.status = SdpStatus::kNumerical;
      return res;
    }

    // Shared pieces of the Schur rhs.
    const BlockMatrix u =
        multiply(zinv, multiply(rd, res.x, opt.parallel), opt.parallel);  // Z^{-1} Rd X
    la::Vector a_zinv(static_cast<std::size_t>(m));
    la::Vector a_u(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      a_zinv[i] = constraint_trace(p, i, zinv);
      a_u[i] = constraint_trace(p, i, u);
    }

    const double mu = gap / static_cast<double>(n_total);

    auto solve_direction = [&](double sigma_mu, const BlockMatrix* second_order,
                               la::Vector* dy, BlockMatrix* dz, BlockMatrix* dx) {
      la::Vector rhs(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        rhs[i] = b[i] - sigma_mu * a_zinv[i] + a_u[i];
        if (second_order != nullptr) rhs[i] += constraint_trace(p, i, *second_order);
      }
      *dy = mchol->solve(rhs);

      *dz = rd;  // dZ = Rd - A'(dy)
      la::Vector neg_dy = *dy;
      for (double& v : neg_dy) v = -v;
      p.accumulate_adjoint(neg_dy, dz);

      // dX = sigma*mu*Z^{-1} - X - Z^{-1} dZ X (- Z^{-1} dZaff dXaff).
      *dx = zinv;
      dx->scale(sigma_mu);
      dx->axpy(-1.0, res.x);
      dx->axpy(-1.0, multiply(zinv, multiply(*dz, res.x, opt.parallel), opt.parallel));
      if (second_order != nullptr) dx->axpy(-1.0, *second_order);
      dx->symmetrize();
    };

    // Predictor (affine scaling, sigma = 0).
    la::Vector dy_aff;
    BlockMatrix dz_aff, dx_aff;
    phase.reset();
    solve_direction(0.0, nullptr, &dy_aff, &dz_aff, &dx_aff);
    times->direction_ms += phase.milliseconds();

    phase.reset();
    const double ap_aff = max_step(res.x, dx_aff, 1.0, opt.parallel);
    const double ad_aff = max_step(res.z, dz_aff, 1.0, opt.parallel);
    times->step_search_ms += phase.milliseconds();
    BlockMatrix x_aff = res.x;
    x_aff.axpy(ap_aff, dx_aff);
    BlockMatrix z_aff = res.z;
    z_aff.axpy(ad_aff, dz_aff);
    const double gap_aff = std::max(0.0, x_aff.inner(z_aff));
    double sigma = (gap > 1e-300) ? std::pow(gap_aff / gap, 3.0) : 0.1;
    sigma = std::clamp(sigma, 1e-4, 0.9);

    // Corrector with Mehrotra second-order term Z^{-1} dZaff dXaff.
    const BlockMatrix second =
        multiply(zinv, multiply(dz_aff, dx_aff, opt.parallel), opt.parallel);
    la::Vector dy;
    BlockMatrix dz, dx;
    phase.reset();
    solve_direction(sigma * mu, &second, &dy, &dz, &dx);
    times->direction_ms += phase.milliseconds();

    phase.reset();
    double ap = max_step(res.x, dx, opt.step_fraction, opt.parallel);
    double ad = max_step(res.z, dz, opt.step_fraction, opt.parallel);
    times->step_search_ms += phase.milliseconds();
    ap = std::min(ap, 1.0);
    ad = std::min(ad, 1.0);
    if (ap <= 1e-10 && ad <= 1e-10) {
      res.status = SdpStatus::kStalled;
      return res;
    }

    res.x.axpy(ap, dx);
    res.z.axpy(ad, dz);
    for (int i = 0; i < m; ++i) res.y[i] += ad * dy[i];
    // Count only fully completed iterations: every early return above
    // (deadline, converged, stalled, numerical) reports the work actually
    // finished, and the iteration-limit path reports max_iterations instead
    // of max_iterations - 1.
    res.iterations = iter + 1;
  }

  res.status = SdpStatus::kIterLimit;
  return res;
}

SdpResult solve(const SdpProblem& p, const SdpOptions& opt) {
  static obs::Counter& calls = obs::metrics().counter("sdp.solve.calls");
  static obs::Counter& iterations = obs::metrics().counter("sdp.solve.iterations");
  static obs::Counter& failures = obs::metrics().counter("sdp.solve.failures");
  static obs::Counter& stalls = obs::metrics().counter("sdp.solve.stalls");
  static obs::Histogram& wall = obs::metrics().histogram("sdp.solve.ms");
  static obs::Histogram& schur_assembly =
      obs::metrics().histogram("phase.sdp.schur_assembly.ms");
  static obs::Histogram& schur_factor = obs::metrics().histogram("phase.sdp.schur_factor.ms");
  static obs::Histogram& direction = obs::metrics().histogram("phase.sdp.direction.ms");
  static obs::Histogram& step_search = obs::metrics().histogram("phase.sdp.step_search.ms");
  WallTimer timer;
  calls.add();
  if (Status vs = p.validate(); !vs.is_ok()) {
    LOG_WARN("sdp: refusing malformed problem: %s", vs.to_string().c_str());
    failures.add();
    SdpResult res;
    res.status = SdpStatus::kBadProblem;
    wall.record(timer.milliseconds());
    return res;
  }
  PhaseTimes times;
  SdpResult res = solve_impl(p, opt, &times);
  schur_assembly.record(times.schur_assembly_ms);
  schur_factor.record(times.schur_factor_ms);
  direction.record(times.direction_ms);
  step_search.record(times.step_search_ms);
  iterations.add(res.iterations);
  // Failure accounting: kNumerical/kDeadline/kBadProblem produced no usable
  // answer and count as failures. kStalled deliberately does NOT — a stall
  // still returns the best iterate and downstream picks routinely accept
  // it; it is tracked separately so dashboards can watch stall rates
  // without polluting the failure signal.
  if (res.status == SdpStatus::kNumerical || res.status == SdpStatus::kDeadline) failures.add();
  if (res.status == SdpStatus::kStalled) stalls.add();
  wall.record(timer.milliseconds());
  return res;
}

}  // namespace cpla::sdp
