#include "src/assign/state.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace cpla::assign {

namespace {

int overflow_of(int load, int cap) { return std::max(0, load - cap); }

}  // namespace

AssignState::AssignState(const grid::Design* design, std::vector<route::SegTree> trees)
    : design_(design), trees_(std::move(trees)) {
  const auto& g = design_->grid;
  layers_.resize(trees_.size());
  nv_ = std::max(1, g.geom().vias_per_track());

  wire_usage_.resize(g.num_layers());
  via_usage_.resize(g.num_layers());
  track_usage_.resize(g.num_layers());
  via_cap_.resize(g.num_layers());
  for (int l = 0; l < g.num_layers(); ++l) {
    wire_usage_[l].assign(static_cast<std::size_t>(g.num_edges_on_layer(l)), 0);
    via_usage_[l].assign(static_cast<std::size_t>(g.num_cells()), 0);
    track_usage_[l].assign(static_cast<std::size_t>(g.num_cells()), 0);
    via_cap_[l].resize(static_cast<std::size_t>(g.num_cells()));
    for (int y = 0; y < g.ysize(); ++y) {
      for (int x = 0; x < g.xsize(); ++x) {
        via_cap_[l][g.cell_id(x, y)] = g.via_capacity(l, x, y);
      }
    }
    if (g.is_horizontal(l)) {
      h_layers_.push_back(l);
    } else {
      v_layers_.push_back(l);
    }
  }
  CPLA_ASSERT_MSG(!h_layers_.empty() && !v_layers_.empty(),
                  "need at least one layer per direction");
  const Overflow ov = recount_overflow();
  wire_overflow_ = ov.wire;
  via_overflow_ = ov.via;
}

void AssignState::for_each_edge(int net, int seg, const std::function<void(int)>& fn) const {
  const auto& g = design_->grid;
  const route::Segment& s = trees_[net].segs[seg];
  if (s.horizontal) {
    const int y = s.a.y;
    for (int x = std::min(s.a.x, s.b.x); x < std::max(s.a.x, s.b.x); ++x) {
      fn(g.h_edge_id(x, y));
    }
  } else {
    const int x = s.a.x;
    for (int y = std::min(s.a.y, s.b.y); y < std::max(s.a.y, s.b.y); ++y) {
      fn(g.v_edge_id(x, y));
    }
  }
}

void AssignState::for_each_cell(int net, int seg, const std::function<void(int)>& fn) const {
  const auto& g = design_->grid;
  const route::Segment& s = trees_[net].segs[seg];
  if (s.horizontal) {
    const int y = s.a.y;
    for (int x = std::min(s.a.x, s.b.x); x <= std::max(s.a.x, s.b.x); ++x) {
      fn(g.cell_id(x, y));
    }
  } else {
    const int x = s.a.x;
    for (int y = std::min(s.a.y, s.b.y); y <= std::max(s.a.y, s.b.y); ++y) {
      fn(g.cell_id(x, y));
    }
  }
}

void AssignState::for_each_via(int net, const std::vector<int>& layers,
                               const std::function<void(int, int, int, int)>& fn) const {
  const route::SegTree& tree = trees_[net];
  CPLA_ASSERT(layers.size() == tree.segs.size());
  for (const route::Segment& s : tree.segs) {
    if (s.parent < 0) {
      // Source via: pin layer up to the root segment's layer, at the root.
      const int lo = std::min(tree.root_pin_layer, layers[s.id]);
      const int hi = std::max(tree.root_pin_layer, layers[s.id]);
      if (lo != hi) fn(s.a.x, s.a.y, lo, hi);
    } else {
      const int lo = std::min(layers[s.parent], layers[s.id]);
      const int hi = std::max(layers[s.parent], layers[s.id]);
      if (lo != hi) fn(s.a.x, s.a.y, lo, hi);
    }
  }
  for (const route::SinkAttach& sink : tree.sinks) {
    if (sink.seg_id < 0) continue;  // same cell as the driver: no wire via
    const route::Segment& s = tree.segs[sink.seg_id];
    const int lo = std::min(sink.pin_layer, layers[sink.seg_id]);
    const int hi = std::max(sink.pin_layer, layers[sink.seg_id]);
    if (lo != hi) fn(s.b.x, s.b.y, lo, hi);
  }
}

void AssignState::apply_net(int net, int delta) {
  const auto& g = design_->grid;
  const auto& layer_of = layers_[net];
  const route::SegTree& tree = trees_[net];
  // Each touched entry moves its overflow term from max(0, before - cap) to
  // max(0, after - cap); the counters absorb exactly that difference.
  auto bump_via_load = [&](std::vector<int>& usage, int l, int cell, int weight) {
    const int cap = via_cap_[l][cell];
    const int before = via_load(l, cell);
    usage[cell] += delta;
    via_overflow_ += overflow_of(before + weight * delta, cap) - overflow_of(before, cap);
  };
  for (const route::Segment& s : tree.segs) {
    const int l = layer_of[s.id];
    CPLA_ASSERT_MSG(g.is_horizontal(l) == s.horizontal, "layer direction mismatch");
    for_each_edge(net, s.id, [&](int e) {
      const int cap = g.edge_capacity(l, e);
      int& usage = wire_usage_[l][e];
      wire_overflow_ -= overflow_of(usage, cap);
      usage += delta;
      wire_overflow_ += overflow_of(usage, cap);
    });
    for_each_cell(net, s.id, [&](int cell) { bump_via_load(track_usage_[l], l, cell, nv_); });
  }
  for_each_via(net, layer_of, [&](int x, int y, int lo, int hi) {
    via_count_ += static_cast<long>(delta) * (hi - lo);
    for (int l = lo + 1; l < hi; ++l) bump_via_load(via_usage_[l], l, g.cell_id(x, y), 1);
  });
}

void AssignState::set_layers(int net, std::vector<int> layers) {
  clear_net(net);
  CPLA_ASSERT(layers.size() == trees_[net].segs.size());
  layers_[net] = std::move(layers);
  apply_net(net, +1);
}

void AssignState::clear_net(int net) {
  if (layers_[net].empty()) return;
  apply_net(net, -1);
  layers_[net].clear();
}

void AssignState::replace_tree(int net, route::SegTree tree, std::vector<int> layers) {
  clear_net(net);
  tree.net_id = net;
  trees_[net] = std::move(tree);
  if (trees_[net].segs.empty()) return;
  if (layers.empty()) layers = default_layers(trees_[net]);
  set_layers(net, std::move(layers));
}

int AssignState::add_net(route::SegTree tree, std::vector<int> layers) {
  const int net = static_cast<int>(trees_.size());
  tree.net_id = net;
  trees_.push_back(std::move(tree));
  layers_.emplace_back();
  if (!trees_[net].segs.empty()) {
    if (layers.empty()) layers = default_layers(trees_[net]);
    set_layers(net, std::move(layers));
  }
  return net;
}

void AssignState::remove_net(int net) {
  clear_net(net);
  route::SegTree empty;
  empty.net_id = net;
  trees_[net] = std::move(empty);
}

void AssignState::pop_net(int net) {
  CPLA_ASSERT_MSG(net == num_nets() - 1, "pop_net only reverses the most recent add_net");
  clear_net(net);
  trees_.pop_back();
  layers_.pop_back();
}

std::vector<int> AssignState::default_layers(const route::SegTree& tree) const {
  std::vector<int> layers(tree.segs.size());
  for (const route::Segment& s : tree.segs) {
    layers[s.id] = allowed_layers(s.horizontal).front();
  }
  return layers;
}

void AssignState::set_wire_capacity(grid::Design* design, int layer, int edge, int cap) {
  CPLA_ASSERT_MSG(design == design_, "capacity change on a design this state does not track");
  const int usage = wire_usage_[layer][edge];
  wire_overflow_ -= overflow_of(usage, design_->grid.edge_capacity(layer, edge));
  design->grid.set_edge_capacity(layer, edge, cap);
  wire_overflow_ += overflow_of(usage, cap);
}

AssignState::Overflow AssignState::recount_overflow() const {
  Overflow ov;
  for (std::size_t l = 0; l < wire_usage_.size(); ++l) {
    for (std::size_t e = 0; e < wire_usage_[l].size(); ++e) {
      ov.wire += overflow_of(wire_usage_[l][e], design_->grid.edge_capacity(
                                                    static_cast<int>(l), static_cast<int>(e)));
    }
  }
  for (std::size_t l = 0; l < via_usage_.size(); ++l) {
    for (std::size_t c = 0; c < via_usage_[l].size(); ++c) {
      ov.via += overflow_of(via_load(static_cast<int>(l), static_cast<int>(c)), via_cap_[l][c]);
    }
  }
  return ov;
}

}  // namespace cpla::assign
