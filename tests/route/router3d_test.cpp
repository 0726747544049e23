#include "src/route/router3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/assign/state.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/timing/elmore.hpp"

namespace cpla::route {
namespace {

grid::Design small_design(int n = 16, int layers = 4, int cap = 8) {
  grid::GridGraph g(n, n, grid::make_layer_stack(layers), grid::default_geom());
  for (int l = 0; l < layers; ++l) g.fill_layer_capacity(l, cap);
  return grid::Design("t3d", std::move(g));
}

TEST(Router3D, RoutesTwoPinNet) {
  grid::Design d = small_design();
  grid::Net net;
  net.id = 0;
  net.name = "n0";
  net.pins = {grid::Pin{1, 1, 0}, grid::Pin{8, 6, 0}};
  d.nets.push_back(net);

  const Routing3DResult rr = route_all_3d(d);
  ASSERT_EQ(rr.routes.size(), 1u);
  EXPECT_FALSE(rr.routes[0].empty());
  EXPECT_EQ(rr.wire_overflow, 0);

  const Tree3D t = extract_tree_3d(d.grid, net, rr.routes[0]);
  ASSERT_FALSE(t.tree.segs.empty());
  ASSERT_EQ(t.layers.size(), t.tree.segs.size());
  ASSERT_EQ(t.tree.sinks.size(), 1u);
  // Wirelength of segments >= manhattan distance.
  int total = 0;
  for (const auto& s : t.tree.segs) total += s.length();
  EXPECT_GE(total, 12);
}

TEST(Router3D, DirectionLegalLayers) {
  grid::Design d = small_design();
  for (int i = 0; i < 30; ++i) {
    grid::Net net;
    net.id = i;
    // Built in two steps: operator+(const char*, string&&) trips gcc 12's
    // -Wrestrict false positive (GCC PR105651) under -Werror.
    net.name = "n";
    net.name += std::to_string(i);
    net.pins = {grid::Pin{(i * 3) % 14 + 1, (i * 5) % 14 + 1, 0},
                grid::Pin{(i * 7) % 14 + 1, (i * 11) % 14 + 1, 0}};
    d.nets.push_back(net);
  }
  const Routing3DResult rr = route_all_3d(d);
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    const Tree3D t = extract_tree_3d(d.grid, d.nets[n], rr.routes[n]);
    for (const auto& seg : t.tree.segs) {
      EXPECT_EQ(d.grid.is_horizontal(t.layers[seg.id]), seg.horizontal);
      EXPECT_GT(seg.length(), 0);
      if (seg.parent >= 0) {
        EXPECT_LT(seg.parent, seg.id);  // topological order
      }
    }
    EXPECT_EQ(t.tree.sinks.size(), d.nets[n].pins.size() - 1);
  }
}

TEST(Router3D, TreesFeedTimingAndState) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 120;
  spec.num_layers = 6;
  spec.seed = 121;
  const grid::Design d = gen::generate(spec);
  const Routing3DResult rr = route_all_3d(d);

  std::vector<SegTree> trees;
  std::vector<std::vector<int>> layers;
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    Tree3D t = extract_tree_3d(d.grid, d.nets[n], rr.routes[n]);
    trees.push_back(std::move(t.tree));
    layers.push_back(std::move(t.layers));
  }
  const timing::RcTable rc(d.grid);
  for (std::size_t n = 0; n < trees.size(); ++n) {
    if (trees[n].segs.empty()) continue;
    const auto t = timing::compute_timing(trees[n], layers[n], rc);
    EXPECT_TRUE(std::isfinite(t.max_sink_delay));
    EXPECT_GE(t.max_sink_delay, 0.0);
  }
  // The assignment state accepts 3-D routed trees wholesale.
  assign::AssignState state(&d, std::move(trees));
  for (std::size_t n = 0; n < layers.size(); ++n) {
    if (state.tree(static_cast<int>(n)).segs.empty()) continue;
    state.set_layers(static_cast<int>(n), layers[n]);
  }
  EXPECT_GT(state.via_count(), 0);
}

TEST(Router3D, ViaCostShapesLayerUsage) {
  // With an enormous via cost, routes should hug the pin layers (few
  // segments above the first pair); with a tiny via cost, higher layers
  // get used on long nets.
  grid::Design d = small_design(24, 6, 10);
  for (int i = 0; i < 20; ++i) {
    grid::Net net;
    net.id = i;
    net.name = "n";  // two steps: gcc 12 -Wrestrict false positive (PR105651)
    net.name += std::to_string(i);
    net.pins = {grid::Pin{1, i % 20 + 1, 0}, grid::Pin{22, (i * 3) % 20 + 1, 0}};
    d.nets.push_back(net);
  }
  Router3DOptions expensive;
  expensive.via_cost = 500.0;
  Router3DOptions cheap;
  cheap.via_cost = 0.5;

  auto high_layer_segments = [&](const Routing3DResult& rr) {
    int count = 0;
    for (std::size_t n = 0; n < d.nets.size(); ++n) {
      const Tree3D t = extract_tree_3d(d.grid, d.nets[n], rr.routes[n]);
      for (std::size_t s = 0; s < t.layers.size(); ++s) {
        if (t.layers[s] >= 2) ++count;
      }
    }
    return count;
  };
  const int expensive_high = high_layer_segments(route_all_3d(d, expensive));
  const int cheap_high = high_layer_segments(route_all_3d(d, cheap));
  EXPECT_LE(expensive_high, cheap_high);
}

TEST(Router3D, SingleCellNetsAreEmpty) {
  grid::Design d = small_design();
  grid::Net net;
  net.id = 0;
  net.name = "n0";
  net.pins = {grid::Pin{3, 3, 0}, grid::Pin{3, 3, 0}};
  d.nets.push_back(net);
  const Routing3DResult rr = route_all_3d(d);
  EXPECT_TRUE(rr.routes[0].empty());
  const Tree3D t = extract_tree_3d(d.grid, net, rr.routes[0]);
  EXPECT_TRUE(t.tree.segs.empty());
  ASSERT_EQ(t.tree.sinks.size(), 1u);
  EXPECT_EQ(t.tree.sinks[0].seg_id, -1);
}

TEST(Router3D, RoundsCountPassesRunWhenBudgetRunsOut) {
  // Dense enough that the initial routes overflow and one rip-up pass
  // cannot clear them.
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 400;
  spec.num_layers = 4;
  spec.tracks_per_layer = 6;
  spec.seed = 11;
  const grid::Design d = gen::generate(spec);
  Router3DOptions none;
  none.max_negotiation_rounds = 0;
  const Routing3DResult initial = route_all_3d(d, none);
  ASSERT_GT(initial.wire_overflow, 0);
  EXPECT_EQ(initial.rounds, 0);

  Router3DOptions one;
  one.max_negotiation_rounds = 1;
  const Routing3DResult after_one = route_all_3d(d, one);
  ASSERT_GT(after_one.wire_overflow, 0);
  EXPECT_EQ(after_one.rounds, 1);
}

}  // namespace
}  // namespace cpla::route
