// Allowed writer: the AssignState capacity entry point.
void AssignState::set_wire_capacity(grid::Design* design, int layer, int edge, int cap) {
  design->grid.set_edge_capacity(layer, edge, cap);
}
