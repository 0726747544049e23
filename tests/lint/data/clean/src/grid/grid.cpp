// Allowed writer: the grid owns its capacity array.
void GridGraph::fill_layer_capacity(int l, int cap) {
  for (int e = 0; e < num_edges_on_layer(l); ++e) set_edge_capacity(l, e, cap);
}
