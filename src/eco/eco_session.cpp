#include "src/eco/eco_session.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"

namespace cpla::eco {

EcoSession::EcoSession(grid::Design* design, assign::AssignState* state,
                       const timing::RcTable* rc, EcoOptions options)
    : design_(design),
      state_(state),
      rc_(rc),
      options_(std::move(options)),
      arbiter_(options_.flow.backend),
      cache_(options_.cache_capacity) {
  CPLA_ASSERT(design_ != nullptr && state_ != nullptr && rc_ != nullptr);
  CPLA_ASSERT_MSG(&state_->design() == design_, "state must be built on this design");
  critical_ = core::select_critical(*state_, *rc_, options_.critical_ratio);
  tree_version_.assign(static_cast<std::size_t>(state_->num_nets()), 0);
}

Result<int> EcoSession::apply(const Delta& delta) {
  // The region is taken against the pre-application state so a reroute
  // covers the *old* tree's partitions as well as the new one's.
  const Rect region = bounding_region(delta, *state_);
  Result<int> applied = apply_delta(delta, design_, state_, &critical_);
  if (!applied.is_ok()) return applied;

  ++deltas_applied_;
  obs::metrics().counter("eco.deltas.applied").add();
  if (!region.empty()) pending_.push_back(region);

  if (delta.kind == DeltaKind::kNetRerouted || delta.kind == DeltaKind::kNetAdded ||
      delta.kind == DeltaKind::kNetRemoved) {
    const int net = applied.value();
    if (net >= 0) {
      if (net >= static_cast<int>(tree_version_.size())) {
        tree_version_.resize(static_cast<std::size_t>(net) + 1, 0);
      }
      tree_version_[net] = next_version_++;
      timing_cache_.invalidate(net);
    }
    // A tree changed shape (or the net set changed): the attached STA
    // graph's node/edge structure is stale, not just its delays.
    if (sta_graph_ != nullptr) sta_graph_->invalidate_topology();
  }
  return applied;
}

Result<std::vector<int>> EcoSession::apply_batch(const std::vector<Delta>& batch) {
  // Undo entries accumulate as deltas apply; on a failure they run in
  // reverse and the critical set snapshot is restored wholesale (promote/
  // demote change the *order* of critical_.nets, which matters for flow
  // determinism, so membership-level undo would not be exact). Session
  // bookkeeping (regions, version bumps, cache invalidations, counters) is
  // deferred until the whole batch has applied.
  const core::CriticalSet critical_snapshot = critical_;
  std::vector<std::function<void()>> undo;
  undo.reserve(batch.size());

  std::vector<int> applied_nets;
  std::vector<Rect> regions;
  std::vector<int> retree_nets;  // nets needing a version bump on commit
  applied_nets.reserve(batch.size());

  auto rollback = [&]() {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) (*it)();
    critical_ = critical_snapshot;
  };

  for (const Delta& delta : batch) {
    const Rect region = bounding_region(delta, *state_);
    // Capture state-level undo *before* the mutation. Criticality changes
    // are covered by the critical-set snapshot alone.
    const std::size_t undo_before = undo.size();
    switch (delta.kind) {
      case DeltaKind::kNetRerouted:
      case DeltaKind::kNetRemoved:
        if (delta.net >= 0 && delta.net < state_->num_nets()) {
          undo.push_back([this, net = delta.net, tree = state_->tree(delta.net),
                          layers = state_->layers(delta.net)]() mutable {
            state_->replace_tree(net, std::move(tree), std::move(layers));
          });
        }
        break;
      case DeltaKind::kCapacityAdjusted: {
        const auto& g = design_->grid;
        if (delta.layer >= 0 && delta.layer < g.num_layers()) {
          const bool horizontal = g.is_horizontal(delta.layer);
          const bool in_range =
              horizontal ? (delta.x >= 0 && delta.x < g.xsize() - 1 && delta.y >= 0 &&
                            delta.y < g.ysize())
                         : (delta.x >= 0 && delta.x < g.xsize() && delta.y >= 0 &&
                            delta.y < g.ysize() - 1);
          if (in_range) {
            const int edge =
                horizontal ? g.h_edge_id(delta.x, delta.y) : g.v_edge_id(delta.x, delta.y);
            undo.push_back([this, layer = delta.layer, edge,
                            cap = g.edge_capacity(delta.layer, edge)]() {
              state_->set_wire_capacity(design_, layer, edge, cap);
            });
          }
        }
        break;
      }
      case DeltaKind::kNetAdded:
      case DeltaKind::kCriticalityChanged:
        break;  // add is undone via pop_net below; criticality via snapshot
    }

    Result<int> applied = apply_delta(delta, design_, state_, &critical_);
    if (!applied.is_ok()) {
      // The failed delta itself mutated nothing (apply_delta validates
      // first): drop *its* pre-captured undo — if it pushed one at all (an
      // out-of-range target skips the capture) — then unwind the earlier
      // ones.
      undo.resize(undo_before);
      rollback();
      obs::metrics().counter("eco.batch.rollbacks").add();
      return applied.status();
    }
    if (delta.kind == DeltaKind::kNetAdded) {
      undo.push_back([this, net = applied.value()]() { state_->pop_net(net); });
    }
    if (delta.kind == DeltaKind::kNetRerouted || delta.kind == DeltaKind::kNetAdded ||
        delta.kind == DeltaKind::kNetRemoved) {
      retree_nets.push_back(applied.value());
    }
    applied_nets.push_back(applied.value());
    if (!region.empty()) regions.push_back(region);
  }

  // Commit: only now does the session bookkeeping observe the batch.
  for (int net : retree_nets) {
    if (net < 0) continue;
    if (net >= static_cast<int>(tree_version_.size())) {
      tree_version_.resize(static_cast<std::size_t>(net) + 1, 0);
    }
    tree_version_[net] = next_version_++;
    timing_cache_.invalidate(net);
  }
  if (!retree_nets.empty() && sta_graph_ != nullptr) sta_graph_->invalidate_topology();
  for (const Rect& r : regions) pending_.push_back(r);
  deltas_applied_ += static_cast<long>(batch.size());
  obs::metrics().counter("eco.deltas.applied").add(static_cast<long>(batch.size()));
  return applied_nets;
}

core::OptimizeResult EcoSession::resolve(const ResolveOptions& request) {
  ++resolves_;
  obs::metrics().counter("eco.resolve.calls").add();
  degraded_.store(false, std::memory_order_relaxed);
  cache_.clear_poison();

  core::CplaOptions opts = options_.flow;
  opts.timing_cache = &timing_cache_;
  opts.partition_solver = [this](const core::PartitionProblem& problem,
                                 const assign::AssignState& state, core::GuardStats* stats) {
    return solve_partition(problem, state, stats);
  };
  if (request.deadline_ms > 0.0) opts.guard.deadline_ms = request.deadline_ms;
  opts.cancel = request.cancel;

  // Entry snapshot: a degraded run restores it before full_resolve() so the
  // fallback optimizes the same input state a fresh core::optimize() would
  // see — resolve() stays bit-identical to the stock path even under
  // injected faults (no double optimization).
  std::vector<std::vector<int>> entry_layers(static_cast<std::size_t>(state_->num_nets()));
  for (int net = 0; net < state_->num_nets(); ++net) entry_layers[net] = state_->layers(net);

  core::OptimizeResult out = core::optimize(state_, *rc_, critical_, opts);
  if (out.result.cancelled) {
    // The caller owns the decision to keep or roll back a partial run;
    // pending regions stay queued so the next resolve re-covers them.
    obs::metrics().counter("eco.resolve.cancelled").add();
    retime_sta();
    return out;
  }
  if (degraded_.load(std::memory_order_relaxed) || cache_.poisoned()) {
    // A fault fired inside the incremental machinery. The run above was
    // still valid (degraded partitions fell back to plain guarded solves,
    // and optimize() enforces never-worse), but redo it on the stock path
    // from the entry state so the final answer owes nothing to the cache.
    ++fallbacks_;
    obs::metrics().counter("eco.resolve.fallbacks").add();
    LOG_WARN("eco: resolve degraded, falling back to full_resolve");
    for (int net = 0; net < state_->num_nets(); ++net) {
      if (state_->layers(net) != entry_layers[net]) {
        state_->set_layers(net, std::move(entry_layers[net]));
      }
    }
    return full_resolve();
  }
  pending_.clear();
  retime_sta();
  return out;
}

core::OptimizeResult EcoSession::full_resolve() {
  ++full_resolves_;
  obs::metrics().counter("eco.resolve.full").add();
  core::OptimizeResult out = core::optimize(state_, *rc_, critical_, options_.flow);
  pending_.clear();
  retime_sta();
  return out;
}

void EcoSession::retime_sta() {
  if (sta_graph_ == nullptr || !sta_graph_->built()) return;
  sta_graph_->update(*state_);
  obs::metrics().counter("sta.eco.retimes").add();
}

void EcoSession::restore_critical(core::CriticalSet critical) {
  critical_ = std::move(critical);
  if (critical_.released.size() < static_cast<std::size_t>(state_->num_nets())) {
    critical_.released.resize(static_cast<std::size_t>(state_->num_nets()), 0);
  }
  tree_version_.resize(static_cast<std::size_t>(state_->num_nets()), 0);
  for (std::uint64_t& v : tree_version_) v = next_version_++;
  pending_.clear();
  timing_cache_.clear();
  cache_.clear();
  // The design/state were swapped out from under the session: any attached
  // graph is structurally stale; it rebuilds on its next update().
  if (sta_graph_ != nullptr) sta_graph_->invalidate_topology();
}

EcoStats EcoSession::stats() const {
  EcoStats s;
  s.deltas_applied = deltas_applied_;
  s.resolves = resolves_;
  s.full_resolves = full_resolves_;
  s.fallbacks = fallbacks_;
  s.dirty_partitions = dirty_partitions_.load(std::memory_order_relaxed);
  s.clean_partitions = clean_partitions_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  return s;
}

bool EcoSession::is_dirty(const core::PartitionProblem& problem) const {
  for (const Rect& r : pending_) {
    if (intersects(r, problem.region_x0, problem.region_y0, problem.region_x1,
                   problem.region_y1)) {
      return true;
    }
  }
  return false;
}

namespace {

/// Defensive validation of a cached pick against the freshly built problem
/// (a hit already proved key equality, so this only guards against cache
/// corruption): well-formed indices and capacity-row feasibility.
bool replay_valid(const core::PartitionProblem& problem, const core::GuardedSolve& solve) {
  if (solve.result.pick.size() != problem.vars.size()) return false;
  for (std::size_t i = 0; i < problem.vars.size(); ++i) {
    const int k = solve.result.pick[i];
    if (k < 0 || k >= static_cast<int>(problem.vars[i].layers.size())) return false;
  }
  return rows_feasible(problem, solve.result.pick);
}

}  // namespace

core::Engine EcoSession::chosen_engine(const core::PartitionProblem& problem) const {
  return arbiter_.choose(problem, options_.flow.guard, options_.flow.engine);
}

core::GuardedSolve EcoSession::solve_partition(const core::PartitionProblem& problem,
                                               const assign::AssignState& state,
                                               core::GuardStats* stats) {
  const core::CplaOptions& f = options_.flow;
  auto solve_fresh = [&]() {
    return core::guarded_solve(problem, state, chosen_engine(problem), f.sdp, f.ilp, f.guard,
                               stats);
  };

  if (CPLA_FAULT_POINT("eco.resolve.partition")) {
    degraded_.store(true, std::memory_order_relaxed);
    return solve_fresh();
  }
  // Once degraded, stop consulting the cache for the rest of this resolve
  // (the whole run will be redone by full_resolve anyway).
  if (degraded_.load(std::memory_order_relaxed)) return solve_fresh();

  if (is_dirty(problem)) {
    dirty_partitions_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("eco.partitions.dirty").add();
    const CacheKey key = build_key(problem, state);
    const core::GuardedSolve solved = solve_fresh();
    cache_.insert(key, solved);
    return solved;
  }

  clean_partitions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("eco.partitions.clean").add();
  const CacheKey key = build_key(problem, state);
  core::GuardedSolve cached;
  if (cache_.lookup(key, &cached)) {
    if (replay_valid(problem, cached)) {
      if (stats != nullptr) {
        ++stats->solves;
        ++stats->tier_used[static_cast<int>(cached.tier)];
      }
      return cached;
    }
    // Corrupt entry: treat as a miss and overwrite below.
    obs::metrics().counter("eco.cache.replay_rejects").add();
  }
  if (cache_.poisoned()) degraded_.store(true, std::memory_order_relaxed);
  const core::GuardedSolve solved = solve_fresh();
  cache_.insert(key, solved);
  return solved;
}

CacheKey EcoSession::build_key(const core::PartitionProblem& problem,
                               const assign::AssignState& state) const {
  CacheKey key;
  const auto& g = state.design().grid;

  // Session salt: solver selection and grid shape. (Solver *options* are
  // fixed for the session's lifetime, so they need no words here.) The
  // arbiter's per-problem choice is part of the key: a pick produced by one
  // engine must never replay for a config that would route elsewhere.
  key.push_int(static_cast<int>(options_.flow.engine));
  key.push_int(static_cast<int>(options_.flow.backend.mode));
  key.push_int(static_cast<int>(chosen_engine(problem)));
  key.push_int(g.num_layers());
  key.push_int(state.nv());

  // The built problem: everything the engines read from it.
  key.push_int(problem.region_x0);
  key.push_int(problem.region_y0);
  key.push_int(problem.region_x1);
  key.push_int(problem.region_y1);
  key.push_int(static_cast<long long>(problem.vars.size()));
  key.push_int(static_cast<long long>(problem.pairs.size()));
  key.push_int(static_cast<long long>(problem.cap_rows.size()));
  for (const core::VarGroup& v : problem.vars) {
    key.push_int(v.net);
    key.push_int(v.seg);
    key.push_int(v.current_layer);
    key.push_double(v.weight);
    key.push_int(static_cast<long long>(v.layers.size()));
    for (int l : v.layers) key.push_int(l);
    for (double c : v.cost) key.push_double(c);
  }
  for (const core::VarPair& p : problem.pairs) {
    key.push_int(p.child);
    key.push_int(p.parent);
    key.push_int(p.junction.x);
    key.push_int(p.junction.y);
    key.push_double(p.scale);
    key.push_int(static_cast<long long>(p.load_ratio.size()));
    for (double r : p.load_ratio) key.push_double(r);
  }
  for (const core::CapRow& row : problem.cap_rows) {
    key.push_int(row.layer);
    key.push_int(row.edge);
    key.push_int(row.cap_remaining);
    key.push_int(static_cast<long long>(row.members.size()));
    for (int m : row.members) key.push_int(m);
  }

  // Live-state reads beyond the problem. (a) The SDP post-mapping walks
  // wire usage/capacity along each var's edges for every allowed layer.
  for (const core::VarGroup& v : problem.vars) {
    state.for_each_edge(v.net, v.seg, [&](int e) {
      for (int l : v.layers) {
        key.push_int(state.wire_usage(l, e));
        key.push_int(state.wire_cap(l, e));
      }
    });
  }
  // (b) The ILP tier reads via load/capacity at pair-junction cells on the
  // intermediate layers.
  for (const core::VarPair& p : problem.pairs) {
    const int cell = g.cell_id(p.junction.x, p.junction.y);
    for (int l = 1; l + 1 < g.num_layers(); ++l) {
      key.push_int(state.via_load(l, cell));
      key.push_int(state.via_cap(l, cell));
    }
  }
  // (c) The net-DP tier reads the partition nets' trees and *full* layer
  // vectors (segments outside the region included).
  std::vector<int> nets;
  nets.reserve(problem.vars.size());
  for (const core::VarGroup& v : problem.vars) nets.push_back(v.net);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  for (int net : nets) {
    key.push_int(net);
    key.push(tree_version_[static_cast<std::size_t>(net)]);
    const std::vector<int>& layers = state.layers(net);
    key.push_int(static_cast<long long>(layers.size()));
    for (int l : layers) key.push_int(l);
  }

  key.finalize();
  return key;
}

}  // namespace cpla::eco
