#pragma once

// Mutable layer-assignment state for a whole design: per-net per-segment
// layer choices plus incrementally-maintained resource usage
//   * wire usage per (layer, directional edge)        -> constraint (4c)
//   * via usage per (layer, cell), intermediate layers -> constraint (4d)
//   * track usage per (layer, cell): wires crossing the cell, which consume
//     nv via sites each (the nv*(x_ij+x_pq) term of (4d))
// and the paper's reported metrics (wire overflow, via overflow OV#, via
// count). All three metrics are running counters updated per touched entry,
// so querying them is O(1); wire capacity changes must go through
// set_wire_capacity so the wire counter stays exact.

#include <functional>
#include <vector>

#include "src/grid/design.hpp"
#include "src/route/seg_tree.hpp"

namespace cpla::assign {

class AssignState {
 public:
  AssignState(const grid::Design* design, std::vector<route::SegTree> trees);

  const grid::Design& design() const { return *design_; }
  int num_nets() const { return static_cast<int>(trees_.size()); }
  const route::SegTree& tree(int net) const { return trees_[net]; }

  bool assigned(int net) const { return !layers_[net].empty() || trees_[net].segs.empty(); }
  const std::vector<int>& layers(int net) const { return layers_[net]; }

  /// Replaces a net's assignment (empty = unassigned); usage is updated
  /// incrementally. Layer directions must match segment directions.
  void set_layers(int net, std::vector<int> layers);

  /// Removes a net from the usage maps (leaves it unassigned).
  void clear_net(int net);

  // --- ECO mutators (src/eco) ------------------------------------------
  // Net ids are stable across all of these: remove_net leaves an empty
  // placeholder tree behind instead of compacting the vector.

  /// Replaces a net's routing tree (an ECO reroute): clears the old usage,
  /// swaps the tree, and assigns `layers` (empty = default_layers).
  void replace_tree(int net, route::SegTree tree, std::vector<int> layers = {});

  /// Appends a brand-new net with its own tree and returns its id.
  int add_net(route::SegTree tree, std::vector<int> layers = {});

  /// Clears a net's usage and replaces its tree with an empty one. The id
  /// stays valid (assigned() reports true for the empty placeholder).
  void remove_net(int net);

  /// Reverses the most recent add_net (`net` must be the current highest
  /// id): clears its usage and drops the slot, shrinking num_nets() by one.
  /// Undo bookkeeping for transactional batch application (src/eco).
  void pop_net(int net);

  /// The deterministic default assignment for a tree: the lowest allowed
  /// layer of each segment's direction.
  std::vector<int> default_layers(const route::SegTree& tree) const;

  // --- Usage queries --------------------------------------------------
  int wire_usage(int layer, int edge) const { return wire_usage_[layer][edge]; }
  int wire_cap(int layer, int edge) const { return design_->grid.edge_capacity(layer, edge); }
  int via_usage(int layer, int cell) const { return via_usage_[layer][cell]; }
  int track_usage(int layer, int cell) const { return track_usage_[layer][cell]; }
  int via_cap(int layer, int cell) const { return via_cap_[layer][cell]; }
  int nv() const { return nv_; }

  /// The single wire-capacity entry point while a state exists: writes
  /// `cap` for (layer, edge) into `design`'s grid (the design this state was
  /// built on) and re-syncs the wire-overflow counter for that edge. Via
  /// capacities keep their construction-time values (see DESIGN.md).
  void set_wire_capacity(grid::Design* design, int layer, int edge, int cap);

  /// Via-site load of constraint (4d): via_usage + nv * track_usage.
  int via_load(int layer, int cell) const {
    return via_usage_[layer][cell] + nv_ * track_usage_[layer][cell];
  }

  // --- Metrics (Table 2 columns) ---------------------------------------
  long wire_overflow() const { return wire_overflow_; }
  long via_overflow() const { return via_overflow_; }  // OV#
  long via_count() const { return via_count_; }

  /// Allowed layers for a segment (matching preferred direction).
  const std::vector<int>& allowed_layers(bool horizontal) const {
    return horizontal ? h_layers_ : v_layers_;
  }

  /// Enumerates the directional edge ids covered by segment `s` of `net`.
  void for_each_edge(int net, int seg, const std::function<void(int edge)>& fn) const;

  /// Enumerates the cells covered by the segment (inclusive of endpoints).
  void for_each_cell(int net, int seg, const std::function<void(int cell)>& fn) const;

  /// Enumerates every via stack of a net under an assignment: fn(x, y,
  /// lower_layer, upper_layer). Includes source and sink pin vias.
  void for_each_via(int net, const std::vector<int>& layers,
                    const std::function<void(int x, int y, int lo, int hi)>& fn) const;

 private:
  friend struct AssignStateAudit;  // test-only access to recount_overflow()

  struct Overflow {
    long wire = 0;
    long via = 0;
  };

  void apply_net(int net, int delta);

  /// Full O(layers x grid) scan of the usage arrays. Seeds the counters at
  /// construction; tests audit the counters against it.
  Overflow recount_overflow() const;

  const grid::Design* design_;
  std::vector<route::SegTree> trees_;
  std::vector<std::vector<int>> layers_;       // [net][seg]
  std::vector<std::vector<int>> wire_usage_;   // [layer][edge]
  std::vector<std::vector<int>> via_usage_;    // [layer][cell]
  std::vector<std::vector<int>> track_usage_;  // [layer][cell]
  std::vector<std::vector<int>> via_cap_;      // [layer][cell], static
  std::vector<int> h_layers_, v_layers_;
  long via_count_ = 0;
  long wire_overflow_ = 0;  // sum of max(0, wire_usage - edge_capacity)
  long via_overflow_ = 0;   // sum of max(0, via_load - via_cap)
  int nv_ = 1;
};

}  // namespace cpla::assign
