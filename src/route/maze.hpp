#pragma once

// Congestion-aware maze routing: a goal-directed (A*) search over the 2-D
// grid from a source set to a target set, using Usage2D edge costs. Used
// both for rip-up rerouting and for connecting pins into a grown net
// component.

#include <vector>

#include "src/route/route2d.hpp"

namespace cpla::route {

/// Finds the cheapest path from any cell in `sources` to any cell in
/// `targets`; appends its unit edges to `out`, target end first. Returns
/// false if no path exists (cannot happen on a connected grid). Cells are
/// cell ids (GridGraph::cell_id).
///
/// Contract: the path is the one plain Dijkstra over (cell, incoming
/// direction) states returns, edge for edge — ties are resolved exactly as
/// Dijkstra's (dist, state) pop order resolves them. The search is pruned
/// by a consistent "ring" lower bound on the cost-to-go (DESIGN.md
/// decision 14), which changes the work done, never the answer. Adds the
/// number of states expanded to the `route.maze.expansions` counter.
bool maze_route(const grid::GridGraph& g, const Usage2D& usage,
                const std::vector<int>& sources, const std::vector<int>& targets,
                NetRoute* out);

}  // namespace cpla::route
