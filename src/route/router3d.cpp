#include "src/route/router3d.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/logging.hpp"

namespace cpla::route {

void NetRoute3D::normalize() {
  auto wire_less = [](const WireEdge& a, const WireEdge& b) {
    return a.layer != b.layer ? a.layer < b.layer : a.edge < b.edge;
  };
  std::sort(wires.begin(), wires.end(), wire_less);
  wires.erase(std::unique(wires.begin(), wires.end()), wires.end());
  auto via_less = [](const ViaEdge& a, const ViaEdge& b) {
    return a.cell != b.cell ? a.cell < b.cell : a.lower < b.lower;
  };
  std::sort(vias.begin(), vias.end(), via_less);
  vias.erase(std::unique(vias.begin(), vias.end()), vias.end());
}

namespace {

/// 3-D usage map with negotiation history on wire edges.
class Usage3D {
 public:
  explicit Usage3D(const grid::GridGraph& g) : g_(g) {
    usage_.resize(g.num_layers());
    hist_.resize(g.num_layers());
    for (int l = 0; l < g.num_layers(); ++l) {
      usage_[l].assign(static_cast<std::size_t>(g.num_edges_on_layer(l)), 0);
      hist_[l].assign(usage_[l].size(), 0.0);
    }
  }

  void add(const NetRoute3D& r, int delta) {
    for (const auto& w : r.wires) usage_[w.layer][w.edge] += delta;
  }

  int usage(int l, int e) const { return usage_[l][e]; }

  double cost(int l, int e) const {
    const int cap = g_.edge_capacity(l, e);
    double c = 1.0 + hist_[l][e];
    if (usage_[l][e] + 1 > cap) {
      c += 8.0 + 4.0 * (usage_[l][e] + 1 - cap);
    } else if (cap > 0) {
      c += 0.5 * static_cast<double>(usage_[l][e]) / cap;
    }
    return c;
  }

  long total_overflow() const {
    long sum = 0;
    for (int l = 0; l < g_.num_layers(); ++l) {
      for (std::size_t e = 0; e < usage_[l].size(); ++e) {
        sum += std::max(0, usage_[l][e] - g_.edge_capacity(l, static_cast<int>(e)));
      }
    }
    return sum;
  }

  void bump_history(double amount) {
    for (int l = 0; l < g_.num_layers(); ++l) {
      for (std::size_t e = 0; e < usage_[l].size(); ++e) {
        if (usage_[l][e] > g_.edge_capacity(l, static_cast<int>(e))) hist_[l][e] += amount;
      }
    }
  }

  bool overflowed(const NetRoute3D& r) const {
    for (const auto& w : r.wires) {
      if (usage_[w.layer][w.edge] > g_.edge_capacity(w.layer, w.edge)) return true;
    }
    return false;
  }

 private:
  const grid::GridGraph& g_;
  std::vector<std::vector<int>> usage_;
  std::vector<std::vector<double>> hist_;
};

/// Multi-source Dijkstra over (cell, layer) nodes.
bool maze_route_3d(const grid::GridGraph& g, const Usage3D& usage,
                   const Router3DOptions& opt, const std::vector<int>& sources,
                   const std::vector<int>& targets, NetRoute3D* out,
                   std::vector<int>* new_nodes) {
  const int xs = g.xsize();
  const int ys = g.ysize();
  const int nl = g.num_layers();
  const int num_nodes = xs * ys * nl;
  CPLA_ASSERT(!sources.empty() && !targets.empty());

  std::vector<double> dist(static_cast<std::size_t>(num_nodes),
                           std::numeric_limits<double>::infinity());
  std::vector<int> prev(static_cast<std::size_t>(num_nodes), -1);
  std::vector<char> is_target(static_cast<std::size_t>(num_nodes), 0);
  for (int t : targets) is_target[t] = 1;

  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (int s : sources) {
    dist[s] = 0.0;
    heap.push({0.0, s});
  }

  // Per-layer wire cost: higher (lower-R) layers slightly cheaper so long
  // connections prefer them — the 3-D analogue of timing-driven layers.
  std::vector<double> layer_cost(nl, 1.0);
  for (int l = 0; l < nl; ++l) {
    layer_cost[l] = 1.0 + opt.layer_cost_scale * 0.08 * (nl - 1 - l);
  }

  int goal = -1;
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;
    if (is_target[node]) {
      goal = node;
      break;
    }
    const int l = node / (xs * ys);
    const int cell = node % (xs * ys);
    const int x = cell % xs;
    const int y = cell / xs;

    auto relax = [&](int nnode, double cost) {
      const double nd = d + cost;
      if (nd < dist[nnode]) {
        dist[nnode] = nd;
        prev[nnode] = node;
        heap.push({nd, nnode});
      }
    };
    if (g.is_horizontal(l)) {
      if (x > 0) relax(node - 1, usage.cost(l, g.h_edge_id(x - 1, y)) * layer_cost[l]);
      if (x < xs - 1) relax(node + 1, usage.cost(l, g.h_edge_id(x, y)) * layer_cost[l]);
    } else {
      if (y > 0) relax(node - xs, usage.cost(l, g.v_edge_id(x, y - 1)) * layer_cost[l]);
      if (y < ys - 1) relax(node + xs, usage.cost(l, g.v_edge_id(x, y)) * layer_cost[l]);
    }
    if (l > 0) relax(node - xs * ys, opt.via_cost);
    if (l < nl - 1) relax(node + xs * ys, opt.via_cost);
  }
  if (goal < 0) return false;

  int node = goal;
  while (prev[node] >= 0) {
    new_nodes->push_back(node);
    const int p = prev[node];
    const int l = node / (xs * ys);
    const int pl = p / (xs * ys);
    const int cell = node % (xs * ys);
    const int pcell = p % (xs * ys);
    if (l != pl) {
      out->vias.push_back({cell, std::min(l, pl)});
    } else {
      const int x = cell % xs, y = cell / xs;
      const int px = pcell % xs, py = pcell / xs;
      if (y == py) {
        out->wires.push_back({l, g.h_edge_id(std::min(x, px), y)});
      } else {
        out->wires.push_back({l, g.v_edge_id(x, std::min(y, py))});
      }
    }
    node = p;
  }
  new_nodes->push_back(node);
  return true;
}

NetRoute3D route_net_3d(const grid::GridGraph& g, const Usage3D& usage,
                        const Router3DOptions& opt, const grid::Net& net) {
  NetRoute3D out;
  const auto cells = net.distinct_cells();
  if (cells.size() < 2) return out;
  const int plane = g.xsize() * g.ysize();
  auto node_of = [&](const grid::Pin& p) { return p.layer * plane + g.cell_id(p.x, p.y); };

  std::vector<grid::Pin> order(cells.begin() + 1, cells.end());
  std::sort(order.begin(), order.end(), [&](const grid::Pin& a, const grid::Pin& b) {
    const int da = std::abs(a.x - cells[0].x) + std::abs(a.y - cells[0].y);
    const int db = std::abs(b.x - cells[0].x) + std::abs(b.y - cells[0].y);
    return da < db;
  });

  std::vector<int> component = {node_of(cells[0])};
  for (const auto& pin : order) {
    const int target = node_of(pin);
    if (std::find(component.begin(), component.end(), target) != component.end()) continue;
    std::vector<int> new_nodes;
    const bool ok = maze_route_3d(g, usage, opt, component, {target}, &out, &new_nodes);
    CPLA_ASSERT_MSG(ok, "3-D maze routing failed on a connected grid");
    component.insert(component.end(), new_nodes.begin(), new_nodes.end());
    std::sort(component.begin(), component.end());
    component.erase(std::unique(component.begin(), component.end()), component.end());
  }
  out.normalize();
  return out;
}

}  // namespace

Routing3DResult route_all_3d(const grid::Design& design, const Router3DOptions& options) {
  const grid::GridGraph& g = design.grid;
  Routing3DResult result;
  result.routes.resize(design.nets.size());
  Usage3D usage(g);

  std::vector<std::size_t> order(design.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return design.nets[a].hpwl() < design.nets[b].hpwl();
  });

  for (std::size_t idx : order) {
    NetRoute3D r = route_net_3d(g, usage, options, design.nets[idx]);
    usage.add(r, +1);
    result.routes[idx] = std::move(r);
  }

  long reroutes = 0;
  for (int round = 0; round < options.max_negotiation_rounds; ++round) {
    if (usage.total_overflow() == 0) break;
    result.rounds = round + 1;
    usage.bump_history(options.history_step);
    for (std::size_t idx : order) {
      NetRoute3D& r = result.routes[idx];
      if (r.empty() || !usage.overflowed(r)) continue;
      usage.add(r, -1);
      r = route_net_3d(g, usage, options, design.nets[idx]);
      usage.add(r, +1);
      ++reroutes;
    }
  }
  result.wire_overflow = usage.total_overflow();
  obs::metrics().counter("route3d.ripup.rounds").add(result.rounds);
  obs::metrics().counter("route3d.ripup.reroutes").add(reroutes);
  LOG_INFO("router3d: %s: %zu nets, wire overflow=%ld after %d rounds", design.name.c_str(),
           design.nets.size(), result.wire_overflow, result.rounds);
  return result;
}

Tree3D extract_tree_3d(const grid::GridGraph& g, const grid::Net& net,
                       const NetRoute3D& route) {
  Tree3D out;
  SegTree& tree = out.tree;
  tree.net_id = net.id;
  CPLA_ASSERT(!net.pins.empty());
  tree.root = grid::XY{net.pins[0].x, net.pins[0].y};
  tree.root_pin_layer = net.pins[0].layer;
  const int xs = g.xsize();
  const int plane = xs * g.ysize();
  const int root_cell = g.cell_id(tree.root.x, tree.root.y);
  const int root_node = tree.root_pin_layer * plane + root_cell;

  // Sinks in the driver cell attach at the root.
  std::vector<int> pending;  // sink nodes
  for (std::size_t k = 1; k < net.pins.size(); ++k) {
    const int cell = g.cell_id(net.pins[k].x, net.pins[k].y);
    if (cell == root_cell) {
      tree.sinks.push_back(SinkAttach{static_cast<int>(k), -1, net.pins[k].layer});
    } else {
      pending.push_back(net.pins[k].layer * plane + cell);
    }
  }
  if (route.empty()) {
    CPLA_ASSERT_MSG(pending.empty(), "pins outside driver cell but empty 3-D route");
    return out;
  }

  // Adjacency over (cell, layer) nodes.
  std::unordered_map<int, std::vector<int>> adj;
  auto link = [&](int a, int b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  const int xs1 = g.xsize() - 1;
  const int ys1 = g.ysize() - 1;
  for (const auto& w : route.wires) {
    if (g.is_horizontal(w.layer)) {
      const int y = w.edge / xs1, x = w.edge % xs1;
      link(w.layer * plane + g.cell_id(x, y), w.layer * plane + g.cell_id(x + 1, y));
    } else {
      const int x = w.edge / ys1, y = w.edge % ys1;
      link(w.layer * plane + g.cell_id(x, y), w.layer * plane + g.cell_id(x, y + 1));
    }
  }
  for (const auto& v : route.vias) {
    link(v.lower * plane + v.cell, (v.lower + 1) * plane + v.cell);
  }

  // BFS tree from the root node; prune to pin-reaching paths.
  std::unordered_map<int, int> bfs_parent;
  bfs_parent[root_node] = root_node;
  std::queue<int> queue;
  queue.push(root_node);
  while (!queue.empty()) {
    const int node = queue.front();
    queue.pop();
    auto it = adj.find(node);
    if (it == adj.end()) continue;
    for (int next : it->second) {
      if (bfs_parent.count(next)) continue;
      bfs_parent[next] = node;
      queue.push(next);
    }
  }
  std::unordered_set<int> kept;
  kept.insert(root_node);
  for (int sink : pending) {
    CPLA_ASSERT_MSG(bfs_parent.count(sink), "3-D route does not reach a sink pin");
    int node = sink;
    while (!kept.count(node)) {
      kept.insert(node);
      node = bfs_parent[node];
    }
  }
  std::unordered_map<int, std::vector<int>> children;
  for (int node : kept) {
    if (node == root_node) continue;
    children[bfs_parent[node]].push_back(node);
  }

  std::unordered_set<int> sink_nodes(pending.begin(), pending.end());

  // Walk maximal straight single-layer runs; via edges pass through without
  // creating segments.
  struct Walk {
    int start;       // node where the next edge leaves
    int next;        // first node of the edge
    int parent_seg;  // segment the run hangs off (-1 = root)
  };
  std::vector<Walk> stack;
  auto push_children = [&](int node, int parent_seg) {
    auto it = children.find(node);
    if (it == children.end()) return;
    for (int ch : it->second) stack.push_back(Walk{node, ch, parent_seg});
  };
  push_children(root_node, -1);

  auto xy_of = [&](int node) {
    const int cell = node % plane;
    return grid::XY{cell % xs, cell / xs};
  };
  auto layer_of = [&](int node) { return node / plane; };

  while (!stack.empty()) {
    const Walk w = stack.back();
    stack.pop_back();

    if (layer_of(w.next) != layer_of(w.start)) {
      // Via edge: continue the walk without a new segment.
      push_children(w.next, w.parent_seg);
      if (sink_nodes.count(w.next)) {
        // A sink tapped mid-stack: attaches to the run it hangs off.
        // Recorded below through the far-end map; mark by treating the
        // stack node as an endpoint of the parent segment is unnecessary —
        // sink attachment uses cell identity (see end_to_seg fallback).
      }
      continue;
    }

    const grid::XY start = xy_of(w.start);
    const int layer = layer_of(w.start);
    grid::XY cur = xy_of(w.next);
    int cur_node = w.next;
    const bool horizontal = (cur.y == start.y);

    while (true) {
      if (sink_nodes.count(cur_node)) break;
      auto it = children.find(cur_node);
      if (it == children.end() || it->second.size() != 1) break;
      const int nxt = it->second[0];
      if (layer_of(nxt) != layer) break;
      const grid::XY nxy = xy_of(nxt);
      const bool same_dir = horizontal ? (nxy.y == cur.y) : (nxy.x == cur.x);
      if (!same_dir) break;
      cur = nxy;
      cur_node = nxt;
    }

    Segment seg;
    seg.id = static_cast<int>(tree.segs.size());
    seg.a = start;
    seg.b = cur;
    seg.horizontal = horizontal;
    seg.parent = w.parent_seg;
    if (w.parent_seg >= 0) tree.segs[w.parent_seg].children.push_back(seg.id);
    tree.segs.push_back(seg);
    out.layers.push_back(layer);

    push_children(cur_node, seg.id);
  }

  // Attach sinks: a sink node's cell must be the far end of some segment
  // (runs break at sinks and at via branches).
  std::unordered_map<long long, int> end_to_seg;
  for (const Segment& s : tree.segs) {
    end_to_seg[static_cast<long long>(s.b.y) * xs + s.b.x] = s.id;
  }
  for (std::size_t k = 1; k < net.pins.size(); ++k) {
    const int cell = g.cell_id(net.pins[k].x, net.pins[k].y);
    if (cell == root_cell) continue;
    auto it = end_to_seg.find(static_cast<long long>(net.pins[k].y) * xs + net.pins[k].x);
    CPLA_ASSERT_MSG(it != end_to_seg.end(), "3-D sink pin not at any segment endpoint");
    tree.sinks.push_back(SinkAttach{static_cast<int>(k), it->second, net.pins[k].layer});
  }
  return out;
}

}  // namespace cpla::route
