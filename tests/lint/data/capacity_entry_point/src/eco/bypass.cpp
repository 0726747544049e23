#include "src/assign/state.hpp"

namespace cpla::eco {

// A comment naming set_edge_capacity(...) must not count.
void shrink_edge(grid::Design* design, int layer, int edge) {
  // The seeded violations: capacity written straight into the grid, so the
  // state's wire-overflow counter goes stale.
  design->grid.set_edge_capacity(layer, edge, 0);
  design->grid.fill_layer_capacity(layer, 1);
}

}  // namespace cpla::eco
