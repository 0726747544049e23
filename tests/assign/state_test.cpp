#include "src/assign/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/grid/layer_stack.hpp"
#include "src/util/rng.hpp"
#include "tests/assign/state_audit.hpp"

namespace cpla::assign {
namespace {

struct Fixture {
  grid::Design design;
  Fixture() : design("t", make_grid()) {}

  static grid::GridGraph make_grid() {
    grid::GridGraph g(12, 12, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 4);
    return g;
  }

  /// L-shaped 2-pin net from (1,1) to (5,4).
  route::SegTree l_net(int id = 0) {
    grid::Net net;
    net.id = id;
    net.pins = {grid::Pin{1, 1, 0}, grid::Pin{5, 4, 0}};
    route::NetRoute r;
    for (int x = 1; x < 5; ++x) r.add_h(design.grid.h_edge_id(x, 1));
    for (int y = 1; y < 4; ++y) r.add_v(design.grid.v_edge_id(5, y));
    return route::extract_tree(design.grid, net, &r);
  }
};

TEST(AssignState, UsageAppliedAndRemoved) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  ASSERT_EQ(state.num_nets(), 1);
  EXPECT_FALSE(state.assigned(0));

  state.set_layers(0, {0, 1});  // H seg on layer 0, V seg on layer 1
  EXPECT_TRUE(state.assigned(0));
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 1);
  EXPECT_EQ(state.wire_usage(1, f.design.grid.v_edge_id(5, 2)), 1);
  // Vias: source 0->0 none; junction 0->1 adjacent (no intermediate);
  // sink 1->0 one crossing. via_count counts crossings: 0 + 1 + 1.
  EXPECT_EQ(state.via_count(), 2);

  state.clear_net(0);
  EXPECT_FALSE(state.assigned(0));
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 0);
  EXPECT_EQ(state.via_count(), 0);
}

TEST(AssignState, TrackUsageCoversCells) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {2, 1});
  // H segment (1,1)-(5,1) on layer 2 covers cells x=1..5 at y=1.
  for (int x = 1; x <= 5; ++x) {
    EXPECT_EQ(state.track_usage(2, f.design.grid.cell_id(x, 1)), 1) << x;
  }
  EXPECT_EQ(state.track_usage(2, f.design.grid.cell_id(6, 1)), 0);
}

TEST(AssignState, IntermediateViaLayersAccrueUsage) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 3});  // junction via 0 -> 3 passes layers 1 and 2
  const int junction = f.design.grid.cell_id(5, 1);
  EXPECT_EQ(state.via_usage(1, junction), 1);
  EXPECT_EQ(state.via_usage(2, junction), 1);
  EXPECT_EQ(state.via_usage(3, junction), 0);
  EXPECT_EQ(state.via_usage(0, junction), 0);
  // Sink via 3 -> 0 at (5,4) passes layers 1, 2.
  const int sink_cell = f.design.grid.cell_id(5, 4);
  EXPECT_EQ(state.via_usage(1, sink_cell), 1);
  EXPECT_EQ(state.via_usage(2, sink_cell), 1);
  // via_count: source 0 + junction 3 + sink 3.
  EXPECT_EQ(state.via_count(), 6);
}

TEST(AssignState, ReassignReplacesUsage) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 1});
  state.set_layers(0, {2, 3});
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 0);
  EXPECT_EQ(state.wire_usage(2, f.design.grid.h_edge_id(2, 1)), 1);
}

TEST(AssignState, WireOverflowCounts) {
  Fixture f;
  // Five identical nets through the same corridor, capacity 4.
  std::vector<route::SegTree> trees;
  for (int i = 0; i < 5; ++i) trees.push_back(f.l_net(i));
  AssignState state(&f.design, std::move(trees));
  for (int i = 0; i < 5; ++i) state.set_layers(i, {0, 1});
  // Each of the 4 h-edges and 3 v-edges is over by 1.
  EXPECT_EQ(state.wire_overflow(), 7);
  state.set_layers(4, {2, 3});
  EXPECT_EQ(state.wire_overflow(), 0);
}

TEST(AssignState, DirectionMismatchAborts) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  EXPECT_DEATH(state.set_layers(0, {1, 1}), "direction");
}

TEST(AssignState, AllowedLayersSplitByDirection) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  EXPECT_EQ(state.allowed_layers(true), (std::vector<int>{0, 2}));
  EXPECT_EQ(state.allowed_layers(false), (std::vector<int>{1, 3}));
}

TEST(AssignState, ViaLoadCombinesViasAndTracks) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 3});
  const int junction = f.design.grid.cell_id(5, 1);
  // Layer 1: one via crossing, no tracks on layer 1 at that cell.
  EXPECT_EQ(state.via_load(1, junction), 1);
  // Layer 0: the H wire crosses the junction cell -> nv tracks-worth.
  EXPECT_EQ(state.via_load(0, junction), state.nv());
}

TEST(AssignState, SetWireCapacityResyncsTheWireCounter) {
  Fixture f;
  std::vector<route::SegTree> trees;
  for (int i = 0; i < 3; ++i) trees.push_back(f.l_net(i));
  AssignState state(&f.design, std::move(trees));
  for (int i = 0; i < 3; ++i) state.set_layers(i, {0, 1});
  EXPECT_EQ(state.wire_overflow(), 0);
  const int edge = f.design.grid.h_edge_id(2, 1);
  state.set_wire_capacity(&f.design, 0, edge, 1);  // 3 wires over capacity 1
  EXPECT_EQ(f.design.grid.edge_capacity(0, edge), 1);
  EXPECT_EQ(state.wire_overflow(), 2);
  state.set_wire_capacity(&f.design, 0, edge, 4);
  EXPECT_EQ(state.wire_overflow(), 0);
  EXPECT_TRUE(AssignStateAudit::counters_match_recount(state));
}

// Every mutator, capacity change and copy keeps both running counters equal
// to a full recount, on a grid tight enough that both overflows occur.
TEST(AssignState, OverflowCountersMatchFullRecountUnderRandomMutations) {
  constexpr int kSize = 8;
  grid::Design design("random", [] {
    grid::GridGraph g(kSize, kSize, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 1);
    return g;
  }());
  const grid::GridGraph& g = design.grid;
  Rng rng(0x5eed0001);

  // A 2-pin L-shaped net: horizontal run at the driver's row, then vertical.
  auto random_tree = [&](int id) {
    grid::Pin a{0, 0, 0}, b{0, 0, 0};
    while (a.x == b.x && a.y == b.y) {
      a = grid::Pin{static_cast<int>(rng.uniform_int(0, kSize - 1)),
                    static_cast<int>(rng.uniform_int(0, kSize - 1)), 0};
      b = grid::Pin{static_cast<int>(rng.uniform_int(0, kSize - 1)),
                    static_cast<int>(rng.uniform_int(0, kSize - 1)), 0};
    }
    grid::Net net;
    net.id = id;
    net.pins = {a, b};
    route::NetRoute r;
    for (int x = std::min(a.x, b.x); x < std::max(a.x, b.x); ++x) r.add_h(g.h_edge_id(x, a.y));
    for (int y = std::min(a.y, b.y); y < std::max(a.y, b.y); ++y) r.add_v(g.v_edge_id(b.x, y));
    return route::extract_tree(g, net, &r);
  };

  std::vector<route::SegTree> trees;
  for (int i = 0; i < 24; ++i) trees.push_back(random_tree(i));
  AssignState state(&design, std::move(trees));
  ASSERT_TRUE(AssignStateAudit::counters_match_recount(state));

  auto random_layers = [&](const route::SegTree& tree) {
    std::vector<int> layers(tree.segs.size());
    for (const route::Segment& s : tree.segs) {
      const std::vector<int>& allowed = state.allowed_layers(s.horizontal);
      layers[s.id] = allowed[rng.uniform_int(0, static_cast<int>(allowed.size()) - 1)];
    }
    return layers;
  };

  long peak_wire = 0, peak_via = 0;
  for (int step = 0; step < 3000; ++step) {
    const int net = static_cast<int>(rng.uniform_int(0, state.num_nets() - 1));
    switch (rng.uniform_int(0, 8)) {
      case 0:
        if (!state.tree(net).segs.empty()) state.set_layers(net, random_layers(state.tree(net)));
        break;
      case 1:
        state.clear_net(net);
        break;
      case 2: {
        route::SegTree tree = random_tree(net);
        std::vector<int> layers = rng.chance(0.5) ? random_layers(tree) : std::vector<int>{};
        state.replace_tree(net, std::move(tree), std::move(layers));
        break;
      }
      case 3: {
        route::SegTree tree = random_tree(state.num_nets());
        std::vector<int> layers = rng.chance(0.5) ? random_layers(tree) : std::vector<int>{};
        state.add_net(std::move(tree), std::move(layers));
        break;
      }
      case 4:
        state.remove_net(net);
        break;
      case 5:
        if (state.num_nets() > 1) state.pop_net(state.num_nets() - 1);
        break;
      case 6: {
        const int layer = static_cast<int>(rng.uniform_int(0, g.num_layers() - 1));
        const int edge = static_cast<int>(rng.uniform_int(0, g.num_edges_on_layer(layer) - 1));
        state.set_wire_capacity(&design, layer, edge, static_cast<int>(rng.uniform_int(0, 3)));
        break;
      }
      case 7: {
        AssignState copy(state);
        ASSERT_TRUE(AssignStateAudit::counters_match_recount(copy)) << "step " << step;
        copy.clear_net(net);  // the copy's counters are its own
        ASSERT_TRUE(AssignStateAudit::counters_match_recount(copy)) << "step " << step;
        break;
      }
      case 8: {
        AssignState other(&design, {});
        other = state;
        ASSERT_TRUE(AssignStateAudit::counters_match_recount(other)) << "step " << step;
        if (!other.tree(net).segs.empty()) other.set_layers(net, random_layers(other.tree(net)));
        state = other;
        break;
      }
    }
    ASSERT_TRUE(AssignStateAudit::counters_match_recount(state)) << "step " << step;
    peak_wire = std::max(peak_wire, state.wire_overflow());
    peak_via = std::max(peak_via, state.via_overflow());
  }
  EXPECT_GT(peak_wire, 0) << "the sequence never exercised wire overflow";
  EXPECT_GT(peak_via, 0) << "the sequence never exercised via overflow";
}

}  // namespace
}  // namespace cpla::assign
