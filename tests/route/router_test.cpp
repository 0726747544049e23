#include "src/route/router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/obs/metrics.hpp"
#include "src/route/maze.hpp"
#include "src/util/logging.hpp"
#include "src/util/rng.hpp"

namespace cpla::route {
namespace {

grid::Design small_design(int cap = 10) {
  grid::GridGraph g(12, 12, grid::make_layer_stack(4), grid::default_geom());
  for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, cap);
  return grid::Design("test", std::move(g));
}

/// True if the route connects all of the net's distinct pin cells.
bool connects_all_pins(const grid::GridGraph& g, const grid::Net& net, const NetRoute& r) {
  const auto cells = net.distinct_cells();
  if (cells.size() < 2) return true;
  std::unordered_map<int, std::vector<int>> adj;
  const int xs1 = g.xsize() - 1;
  const int ys1 = g.ysize() - 1;
  for (int id : r.h_edges) {
    const int y = id / xs1, x = id % xs1;
    adj[g.cell_id(x, y)].push_back(g.cell_id(x + 1, y));
    adj[g.cell_id(x + 1, y)].push_back(g.cell_id(x, y));
  }
  for (int id : r.v_edges) {
    const int x = id / ys1, y = id % ys1;
    adj[g.cell_id(x, y)].push_back(g.cell_id(x, y + 1));
    adj[g.cell_id(x, y + 1)].push_back(g.cell_id(x, y));
  }
  std::unordered_set<int> visited;
  std::queue<int> queue;
  queue.push(g.cell_id(cells[0].x, cells[0].y));
  visited.insert(queue.front());
  while (!queue.empty()) {
    const int c = queue.front();
    queue.pop();
    for (int n : adj[c]) {
      if (visited.insert(n).second) queue.push(n);
    }
  }
  for (const auto& pin : cells) {
    if (!visited.count(g.cell_id(pin.x, pin.y))) return false;
  }
  return true;
}

// Oracle for the differential tests: the plain Dijkstra maze search that
// maze_route must reproduce edge for edge. Not a product path.
constexpr double kBendPenalty = 1.5;
constexpr int kDirH = 0;
constexpr int kDirV = 1;
constexpr int kDirNone = 2;  // start state

bool reference_maze_route(const grid::GridGraph& g, const Usage2D& usage,
                          const std::vector<int>& sources, const std::vector<int>& targets,
                          NetRoute* out) {
  CPLA_ASSERT(!sources.empty() && !targets.empty());
  const int xs = g.xsize();
  const int ys = g.ysize();
  const int num_states = xs * ys * 3;

  std::vector<double> dist(static_cast<std::size_t>(num_states),
                           std::numeric_limits<double>::infinity());
  std::vector<int> prev(static_cast<std::size_t>(num_states), -1);
  std::vector<char> is_target(static_cast<std::size_t>(xs * ys), 0);
  for (int t : targets) is_target[t] = 1;

  auto state_id = [&](int cell, int dir) { return cell * 3 + dir; };

  using Item = std::pair<double, int>;  // (dist, state)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (int s : sources) {
    const int st = state_id(s, kDirNone);
    dist[st] = 0.0;
    heap.push({0.0, st});
  }

  int goal_state = -1;
  while (!heap.empty()) {
    const auto [d, st] = heap.top();
    heap.pop();
    if (d > dist[st]) continue;
    const int cell = st / 3;
    const int dir = st % 3;
    if (is_target[cell]) {
      goal_state = st;
      break;
    }
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
        heap.push({nd, nst});
      }
    };
    if (x > 0) relax(x - 1, y, kDirH, usage.h_cost(g.h_edge_id(x - 1, y)));
    if (x < xs - 1) relax(x + 1, y, kDirH, usage.h_cost(g.h_edge_id(x, y)));
    if (y > 0) relax(x, y - 1, kDirV, usage.v_cost(g.v_edge_id(x, y - 1)));
    if (y < ys - 1) relax(x, y + 1, kDirV, usage.v_cost(g.v_edge_id(x, y)));
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

// route_all under the plain Dijkstra kernel (reference_maze_route): the
// route fingerprints of newblue1 and of overflowing_spec(), and the states
// the kernel expands (non-stale, non-target pops) on newblue1. All three
// are deterministic, so the gates below are machine-independent.
constexpr std::uint64_t kNewblue1RouteHash = 0x847bc8a98ad43d1aull;
constexpr std::uint64_t kOverflowingRouteHash = 0xead2a82b128c279dull;
constexpr std::int64_t kNewblue1ReferenceExpansions = 1057033;

/// Order-sensitive FNV-1a fingerprint of every net's edge lists.
std::uint64_t route_hash(const RoutingResult& rr) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const NetRoute& r : rr.routes) {
    mix(r.h_edges.size());
    for (int id : r.h_edges) mix(static_cast<std::uint64_t>(id));
    mix(r.v_edges.size());
    for (int id : r.v_edges) mix(static_cast<std::uint64_t>(id));
  }
  return h;
}

/// Spec of the dense instance whose initial pattern routing overflows.
gen::SynthSpec overflowing_spec() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 400;
  spec.num_layers = 4;
  spec.tracks_per_layer = 6;
  spec.seed = 11;
  return spec;
}

TEST(MazeRoute, StraightShotOnEmptyGrid) {
  const grid::Design d = small_design();
  Usage2D usage(d.grid);
  NetRoute out;
  ASSERT_TRUE(maze_route(d.grid, usage, {d.grid.cell_id(1, 5)}, {d.grid.cell_id(9, 5)}, &out));
  EXPECT_EQ(out.h_edges.size(), 8u);
  EXPECT_TRUE(out.v_edges.empty());
}

TEST(MazeRoute, DetoursAroundCongestion) {
  const grid::Design d = small_design(2);
  Usage2D usage(d.grid);
  // Saturate the direct corridor (y=5) between x=3..7.
  NetRoute blocker;
  for (int x = 3; x < 7; ++x) blocker.add_h(d.grid.h_edge_id(x, 5));
  const int cap = usage.h_cap(d.grid.h_edge_id(3, 5));
  for (int i = 0; i < cap; ++i) usage.add(blocker, +1);

  NetRoute out;
  ASSERT_TRUE(maze_route(d.grid, usage, {d.grid.cell_id(1, 5)}, {d.grid.cell_id(9, 5)}, &out));
  // Must leave row 5 to avoid the saturated edges.
  EXPECT_FALSE(out.v_edges.empty());
  for (int id : out.h_edges) {
    EXPECT_EQ(usage.h_usage(id) < usage.h_cap(id), true) << "routed into full edge";
  }
}

TEST(MazeRoute, MultiSourceTerminatesAtNearest) {
  const grid::Design d = small_design();
  Usage2D usage(d.grid);
  NetRoute out;
  ASSERT_TRUE(maze_route(d.grid, usage, {d.grid.cell_id(0, 0), d.grid.cell_id(8, 8)},
                         {d.grid.cell_id(9, 9)}, &out));
  EXPECT_EQ(out.wirelength(), 2u);  // from (8,8), not (0,0)
}

TEST(Router, AllNetsConnected) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 4;
  spec.seed = 3;
  const grid::Design d = gen::generate(spec);
  const RoutingResult rr = route_all(d);
  ASSERT_EQ(rr.routes.size(), d.nets.size());
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    EXPECT_TRUE(connects_all_pins(d.grid, d.nets[n], rr.routes[n])) << d.nets[n].name;
  }
}

TEST(Router, SingleCellNetsGetEmptyRoutes) {
  grid::Design d = small_design();
  grid::Net net;
  net.id = 0;
  net.name = "loop";
  net.pins = {grid::Pin{3, 3, 0}, grid::Pin{3, 3, 0}};
  d.nets.push_back(net);
  const RoutingResult rr = route_all(d);
  EXPECT_TRUE(rr.routes[0].empty());
}

TEST(Router, NegotiationReducesOverflow) {
  // Dense instance on a tight grid: initial pattern routing overflows;
  // negotiation should remove all or nearly all of it.
  const grid::Design d = gen::generate(overflowing_spec());

  RouterOptions no_negotiation;
  no_negotiation.max_negotiation_rounds = 0;
  const long before = route_all(d, no_negotiation).overflow;

  const long after = route_all(d).overflow;
  EXPECT_LE(after, before);
}

TEST(Router, RoundsCountPassesRunWhenBudgetRunsOut) {
  const grid::Design d = gen::generate(overflowing_spec());
  RouterOptions none;
  none.max_negotiation_rounds = 0;
  ASSERT_GT(route_all(d, none).overflow, 0);

  RouterOptions one;
  one.max_negotiation_rounds = 1;
  EXPECT_EQ(route_all(d, one).rounds, 1);
}

TEST(MazeRoute, MatchesDijkstraOnRandomQueries) {
  Rng rng(20260517);
  int multi_queries = 0;
  for (int q = 0; q < 2000; ++q) {
    const int xs = static_cast<int>(rng.uniform_int(2, 14));
    const int ys = static_cast<int>(rng.uniform_int(2, 14));
    const int layers = static_cast<int>(rng.uniform_int(2, 4));
    grid::GridGraph g(xs, ys, grid::make_layer_stack(layers), grid::default_geom());
    // One grid in four keeps uniform capacity and no load: every edge costs
    // the same, so nearly every state has tied predecessors.
    const bool uniform = rng.chance(0.25);
    for (int l = 0; l < layers; ++l) {
      g.fill_layer_capacity(l, static_cast<int>(rng.uniform_int(0, 4)));
      if (uniform) continue;
      for (int e = 0; e < g.num_edges_on_layer(l); ++e) {
        if (rng.chance(0.3)) g.set_edge_capacity(l, e, static_cast<int>(rng.uniform_int(0, 6)));
      }
    }
    Usage2D usage(g);
    if (!uniform) {
      const int loads = static_cast<int>(rng.uniform_int(0, 3 * xs * ys));
      for (int i = 0; i < loads; ++i) {
        NetRoute r;
        if (rng.chance(0.5)) {
          r.add_h(static_cast<int>(rng.uniform_int(0, g.num_h_edges() - 1)));
        } else {
          r.add_v(static_cast<int>(rng.uniform_int(0, g.num_v_edges() - 1)));
        }
        usage.add(r, +1);
      }
      const int bumps = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < bumps; ++i) usage.bump_history(rng.chance(0.5) ? 1.5 : 0.1);
    }

    auto random_cells = [&](int max_count) {
      std::vector<int> cells(static_cast<std::size_t>(rng.uniform_int(1, max_count)));
      for (int& c : cells) c = static_cast<int>(rng.uniform_int(0, xs * ys - 1));
      return cells;
    };
    const bool multi = rng.chance(0.3);
    const std::vector<int> sources = random_cells(multi ? 4 : 1);
    const std::vector<int> targets = random_cells(multi ? 3 : 1);
    multi_queries += multi ? 1 : 0;

    NetRoute want, got;
    const bool want_ok = reference_maze_route(g, usage, sources, targets, &want);
    const bool got_ok = maze_route(g, usage, sources, targets, &got);
    ASSERT_EQ(got_ok, want_ok) << "query " << q;
    ASSERT_EQ(got.h_edges, want.h_edges) << "query " << q;
    ASSERT_EQ(got.v_edges, want.v_edges) << "query " << q;
  }
  EXPECT_GT(multi_queries, 400);
}

TEST(Router, RoutesMatchRecordedFingerprints) {
  // Any change to the routes, and so to every downstream layer vector and
  // metric, moves these.
  EXPECT_EQ(route_hash(route_all(gen::generate_suite("newblue1"))), kNewblue1RouteHash);
  EXPECT_EQ(route_hash(route_all(gen::generate(overflowing_spec()))), kOverflowingRouteHash);
}

TEST(Router, GoalDirectedSearchExpandsFewStates) {
  obs::Counter& expansions = obs::metrics().counter("route.maze.expansions");
  const std::int64_t before = expansions.value();
  route_all(gen::generate_suite("newblue1"));
  const std::int64_t used = expansions.value() - before;
  EXPECT_GT(used, 0);
  EXPECT_LE(used, kNewblue1ReferenceExpansions * 2 / 5) << "expanded " << used << " states";
}

}  // namespace
}  // namespace cpla::route
