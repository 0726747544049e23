#include "src/route/maze.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>

#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"

namespace cpla::route {

// A* over (cell, incoming direction) states. The bend penalty keeps
// rerouted paths straight — matching the mostly-monotone routes production
// global routers emit, and keeping the downstream segment trees short.
// DESIGN.md decision 14 derives the bound and the tie rule.
namespace {
constexpr double kBendPenalty = 1.5;
constexpr int kDirH = 0;
constexpr int kDirV = 1;
constexpr int kDirNone = 2;  // start state

// Relative slack on the stopping test: states whose f exceeds the goal cost
// only by rounding in g+h are still expanded, so every tied predecessor of
// a path state is seen.
constexpr double kStopSlack = 1e-9;

/// Consistent lower bound on the cost-to-go from (cell, incoming dir).
///
/// One target: ring k holds the cells at Manhattan distance k from it, and
/// R_k is the cheapest edge joining ring k to ring k-1. Every path from
/// distance D crosses each of those D ring boundaries inward at least once,
/// so R_1 + ... + R_D bounds its wire cost; R_k is computed lazily, O(k)
/// per ring. A bend penalty is added when a turn is unavoidable. Several
/// targets (tests only): R_k = 1 (no edge costs less) and the minimum over
/// targets.
class RingBound {
 public:
  RingBound(const grid::GridGraph& g, const Usage2D& usage, const std::vector<int>& targets)
      : g_(g), usage_(usage), xs_(g.xsize()), ys_(g.ysize()), targets_(targets) {
    ring_sum_.push_back(0.0);
  }

  double operator()(int x, int y, int dir) {
    if (targets_.size() == 1) return bound(x, y, dir, targets_[0], /*rings=*/true);
    double best = std::numeric_limits<double>::infinity();
    for (int t : targets_) best = std::min(best, bound(x, y, dir, t, /*rings=*/false));
    return best;
  }

 private:
  double bound(int x, int y, int dir, int target, bool rings) {
    const int dx = std::abs(x - target % xs_);
    const int dy = std::abs(y - target / xs_);
    const bool turn = (dx > 0 && dy > 0) || (dir == kDirH && dx == 0 && dy > 0) ||
                      (dir == kDirV && dy == 0 && dx > 0);
    const double wire = rings ? ring_sum(dx + dy) : static_cast<double>(dx + dy);
    return wire + (turn ? kBendPenalty : 0.0);
  }

  /// R_1 + ... + R_d around the (single) target.
  double ring_sum(int d) {
    while (static_cast<int>(ring_sum_.size()) <= d) {
      const int k = static_cast<int>(ring_sum_.size());
      ring_sum_.push_back(ring_sum_.back() + ring_min(k));
    }
    return ring_sum_[static_cast<std::size_t>(d)];
  }

  /// Cheapest edge from a ring-k cell one step toward the target.
  double ring_min(int k) const {
    const int tx = targets_[0] % xs_;
    const int ty = targets_[0] / xs_;
    double best = std::numeric_limits<double>::infinity();
    auto inward = [&](int x, int y) {
      if (x > tx) best = std::min(best, usage_.h_cost(g_.h_edge_id(x - 1, y)));
      if (x < tx) best = std::min(best, usage_.h_cost(g_.h_edge_id(x, y)));
      if (y > ty) best = std::min(best, usage_.v_cost(g_.v_edge_id(x, y - 1)));
      if (y < ty) best = std::min(best, usage_.v_cost(g_.v_edge_id(x, y)));
    };
    for (int a = std::max(-k, -tx); a <= std::min(k, xs_ - 1 - tx); ++a) {
      const int b = k - std::abs(a);
      if (ty + b < ys_) inward(tx + a, ty + b);
      if (b > 0 && ty - b >= 0) inward(tx + a, ty - b);
    }
    return best;
  }

  const grid::GridGraph& g_;
  const Usage2D& usage_;
  const int xs_, ys_;
  const std::vector<int>& targets_;
  std::vector<double> ring_sum_;  // ring_sum_[d] = R_1 + ... + R_d
};

struct Item {
  double f;  // g + h
  double g;
  int state;
};

/// Min-heap order on (f, state).
struct PopsLater {
  bool operator()(const Item& a, const Item& b) const {
    return a.f > b.f || (a.f == b.f && a.state > b.state);
  }
};
}  // namespace

bool maze_route(const grid::GridGraph& g, const Usage2D& usage,
                const std::vector<int>& sources, const std::vector<int>& targets,
                NetRoute* out) {
  CPLA_ASSERT(!sources.empty() && !targets.empty());
  static obs::Counter& expansions = obs::metrics().counter("route.maze.expansions");
  const int xs = g.xsize();
  const int ys = g.ysize();
  const int num_states = xs * ys * 3;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<double> dist(static_cast<std::size_t>(num_states), kInf);
  std::vector<int> prev(static_cast<std::size_t>(num_states), -1);
  std::vector<char> is_target(static_cast<std::size_t>(xs * ys), 0);
  for (int t : targets) is_target[t] = 1;
  RingBound h(g, usage, targets);

  auto state_id = [&](int cell, int dir) { return cell * 3 + dir; };

  // Plain Dijkstra pops states in (dist, state) order and keeps the first
  // predecessor that reaches a state's final label; that is the tied
  // predecessor with the smallest (dist, state).
  auto precedes = [&](int a, int b) {
    return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
  };

  std::priority_queue<Item, std::vector<Item>, PopsLater> heap;
  double goal = kInf;  // cheapest target label so far
  for (int s : sources) {
    const int st = state_id(s, kDirNone);
    if (dist[st] == 0.0) continue;
    dist[st] = 0.0;
    if (is_target[s]) goal = 0.0;
    heap.push({h(s % xs, s / xs, kDirNone), 0.0, st});
  }

  std::int64_t expanded = 0;
  while (!heap.empty() && heap.top().f <= goal * (1.0 + kStopSlack)) {
    const Item top = heap.top();
    heap.pop();
    const double d = top.g;
    const int st = top.state;
    if (d > dist[st]) continue;
    const int cell = st / 3;
    if (is_target[cell]) continue;  // goal candidates are never expanded
    ++expanded;
    const int dir = st % 3;
    const int x = cell % xs;
    const int y = cell / xs;

    auto relax = [&](int nx, int ny, int ndir, double edge_cost) {
      const double bend = (dir != kDirNone && dir != ndir) ? kBendPenalty : 0.0;
      const int ncell = ny * xs + nx;
      const int nst = state_id(ncell, ndir);
      const double nd = d + edge_cost + bend;
      if (nd < dist[nst]) {
        dist[nst] = nd;
        prev[nst] = st;
        if (is_target[ncell]) goal = std::min(goal, nd);
        heap.push({nd + h(nx, ny, ndir), nd, nst});
      } else if (nd == dist[nst] && precedes(st, prev[nst])) {
        prev[nst] = st;
      }
    };
    if (x > 0) relax(x - 1, y, kDirH, usage.h_cost(g.h_edge_id(x - 1, y)));
    if (x < xs - 1) relax(x + 1, y, kDirH, usage.h_cost(g.h_edge_id(x, y)));
    if (y > 0) relax(x, y - 1, kDirV, usage.v_cost(g.v_edge_id(x, y - 1)));
    if (y < ys - 1) relax(x, y + 1, kDirV, usage.v_cost(g.v_edge_id(x, y)));
  }
  expansions.add(expanded);

  // The goal is the target state Dijkstra would pop first.
  int goal_state = -1;
  for (int t : targets) {
    for (int dir = 0; dir < 3; ++dir) {
      const int st = state_id(t, dir);
      if (dist[st] < kInf && (goal_state < 0 || precedes(st, goal_state))) goal_state = st;
    }
  }
  if (goal_state < 0) return false;

  // Walk back, emitting unit edges.
  int st = goal_state;
  while (prev[st] >= 0) {
    const int p = prev[st];
    const int cell = st / 3;
    const int pcell = p / 3;
    const int cx = cell % xs, cy = cell / xs;
    const int px = pcell % xs, py = pcell / xs;
    if (cy == py) {
      out->add_h(g.h_edge_id(std::min(cx, px), cy));
    } else {
      out->add_v(g.v_edge_id(cx, std::min(cy, py)));
    }
    st = p;
  }
  return true;
}

}  // namespace cpla::route
