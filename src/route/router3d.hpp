#pragma once

// Direct 3-D global router: negotiation-based maze routing over the full
// (x, y, layer) grid, with per-layer wire costs and explicit via edges.
// This is the monolithic alternative to the 2-D route + layer-assignment
// decomposition the paper's flow belongs to; the ablation bench compares
// the two (3-D search sees layers during routing but explores a much
// larger graph per net).
//
// The result converts into the same SegTree + per-segment-layer form the
// timing engine and AssignState consume, so both flows are measured with
// identical machinery.

#include <vector>

#include "src/route/seg_tree.hpp"

namespace cpla::route {

/// A net's 3-D route as unit edges: wires on a layer plus vias between
/// adjacent layers.
struct NetRoute3D {
  struct WireEdge {
    int layer;
    int edge;  // h_edge_id on horizontal layers, v_edge_id on vertical
    friend bool operator==(const WireEdge&, const WireEdge&) = default;
  };
  struct ViaEdge {
    int cell;
    int lower;  // connects `lower` and `lower`+1
    friend bool operator==(const ViaEdge&, const ViaEdge&) = default;
  };
  std::vector<WireEdge> wires;
  std::vector<ViaEdge> vias;

  bool empty() const { return wires.empty() && vias.empty(); }
  void normalize();
};

struct Router3DOptions {
  int max_negotiation_rounds = 6;
  double history_step = 1.5;
  double via_cost = 2.0;        // base cost per via edge
  double layer_cost_scale = 1.0;  // scales the per-layer wire cost profile
};

struct Routing3DResult {
  std::vector<NetRoute3D> routes;  // indexed by net id
  long wire_overflow = 0;
  int rounds = 0;  // rip-up-and-reroute passes run
};

Routing3DResult route_all_3d(const grid::Design& design, const Router3DOptions& options = {});

/// Converts a 3-D route into a segment tree plus per-segment layers
/// (segments break at turns, branches, pins, and layer changes). Prunes
/// edges not on any pin-to-pin path. Aborts if the route does not connect
/// the net's pins at their pin layers.
struct Tree3D {
  SegTree tree;
  std::vector<int> layers;  // per segment
};
Tree3D extract_tree_3d(const grid::GridGraph& g, const grid::Net& net,
                       const NetRoute3D& route);

}  // namespace cpla::route
