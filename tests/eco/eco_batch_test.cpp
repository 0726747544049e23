// Satellite regression suite for batched delta application. The plain
// apply() loop is deliberately NOT transactional — a mid-batch failure
// leaves the already-applied prefix in place (pinned here so the behavior
// can never change silently). apply_batch() is the transactional variant:
// all-or-nothing, with a failure leaving the session byte-identical to its
// pre-batch self, including the *order* of the critical set.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "tests/assign/state_audit.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

constexpr std::uint64_t kSeed = 77;

core::Prepared batch_bench() { return eco::make_bench(kSeed, 14, 80); }

int first_horizontal(const grid::GridGraph& g) {
  int layer = 0;
  while (!g.is_horizontal(layer)) ++layer;
  return layer;
}

/// A mixed batch touching all five delta kinds, valid in order.
std::vector<Delta> mixed_batch(const grid::Design& design, const assign::AssignState& state) {
  const int h = first_horizontal(design.grid);
  const int cap = design.grid.edge_capacity(h, design.grid.h_edge_id(2, 3));
  std::vector<Delta> batch;
  batch.push_back(Delta::capacity_adjusted(h, 2, 3, cap + 3));
  batch.push_back(Delta::criticality_changed(1, true));
  batch.push_back(Delta::net_rerouted(2, state.tree(2), state.layers(2)));
  batch.push_back(Delta::net_added(state.tree(3), state.layers(3)));
  batch.push_back(Delta::net_removed(4));
  return batch;
}

TEST(EcoBatchTest, PlainApplyLoopLeavesThePartialPrefixApplied) {
  // The pinned behavior: stop-at-first-failure, keep the prefix. The
  // serve-layer journal relies on exactly this (each delta journals and
  // applies independently; a rejected delta rejects identically on replay).
  core::Prepared a = batch_bench();
  core::Prepared b = batch_bench();
  EcoSession sa(a.design.get(), a.state.get(), a.rc.get());
  EcoSession sb(b.design.get(), b.state.get(), b.rc.get());

  std::vector<Delta> batch = mixed_batch(*a.design, *a.state);
  batch.insert(batch.begin() + 2, Delta::net_removed(999999));  // poison mid-batch

  int failures = 0;
  for (const Delta& d : batch) {
    if (!sa.apply(d).is_ok()) {
      ++failures;
      break;  // the CLI/service loop stops at the first failure
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(sa.stats().deltas_applied, 2);

  // The twin applies only the prefix — the two states must agree exactly.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sb.apply(batch[i]).is_ok());
  expect_assignments_equal(*a.state, *b.state);
  EXPECT_EQ(sa.critical().nets, sb.critical().nets);
  const int h = first_horizontal(a.design->grid);
  EXPECT_EQ(a.design->grid.edge_capacity(h, a.design->grid.h_edge_id(2, 3)),
            b.design->grid.edge_capacity(h, b.design->grid.h_edge_id(2, 3)));
}

TEST(EcoBatchTest, ApplyBatchFailureRestoresThePreBatchStateExactly) {
  core::Prepared a = batch_bench();
  core::Prepared b = batch_bench();  // untouched twin = the pre-batch truth
  EcoSession sa(a.design.get(), a.state.get(), a.rc.get());
  EcoSession sb(b.design.get(), b.state.get(), b.rc.get());

  std::vector<Delta> batch = mixed_batch(*a.design, *a.state);
  batch.push_back(Delta::net_removed(999999));  // fails after all five applied

  const Result<std::vector<int>> out = sa.apply_batch(batch);
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kBadInput);

  // Byte-identical pre-batch state: assignments, net count (the added net
  // was popped), capacity, critical order AND membership, counters.
  expect_assignments_equal(*a.state, *b.state);
  EXPECT_EQ(a.state->num_nets(), b.state->num_nets());
  const int h = first_horizontal(a.design->grid);
  EXPECT_EQ(a.design->grid.edge_capacity(h, a.design->grid.h_edge_id(2, 3)),
            b.design->grid.edge_capacity(h, b.design->grid.h_edge_id(2, 3)));
  EXPECT_EQ(sa.critical().nets, sb.critical().nets);
  EXPECT_EQ(sa.critical().released, sb.critical().released);
  EXPECT_EQ(sa.stats().deltas_applied, 0);

  // And no hidden bookkeeping survived: a resolve from here must be
  // bit-identical to the twin that never saw the batch.
  const core::OptimizeResult ra = sa.resolve();
  const core::OptimizeResult rb = sb.resolve();
  ASSERT_TRUE(ra.status.is_ok());
  ASSERT_TRUE(rb.status.is_ok());
  expect_assignments_equal(*a.state, *b.state);
  expect_metrics_equal(*a.state, *b.state, *a.rc, sa.critical());
}

TEST(EcoBatchTest, ApplyBatchSuccessMatchesOneByOneApplication) {
  core::Prepared a = batch_bench();
  core::Prepared b = batch_bench();
  EcoSession sa(a.design.get(), a.state.get(), a.rc.get());
  EcoSession sb(b.design.get(), b.state.get(), b.rc.get());

  const std::vector<Delta> handmade = mixed_batch(*a.design, *a.state);
  const Result<std::vector<int>> batch_ids = sa.apply_batch(handmade);
  ASSERT_TRUE(batch_ids.is_ok());
  ASSERT_EQ(batch_ids.value().size(), handmade.size());
  std::vector<int> loop_ids;
  for (const Delta& d : handmade) {
    const Result<int> r = sb.apply(d);
    ASSERT_TRUE(r.is_ok());
    loop_ids.push_back(r.value());
  }
  EXPECT_EQ(batch_ids.value(), loop_ids);
  expect_assignments_equal(*a.state, *b.state);
  EXPECT_EQ(sa.critical().nets, sb.critical().nets);
  EXPECT_EQ(sa.stats().deltas_applied, sb.stats().deltas_applied);

  // A generated mixed stream (reroutes under the hood) agrees too, and the
  // post-batch resolves stay on the bit-identical equivalence contract.
  const std::vector<Delta> script = make_edit_script(*a.state, sa.critical(), {.count = 10, .seed = 3});
  ASSERT_TRUE(sa.apply_batch(script).is_ok());
  for (const Delta& d : script) ASSERT_TRUE(sb.apply(d).is_ok());
  const core::OptimizeResult ra = sa.resolve();
  const core::OptimizeResult rb = sb.resolve();
  ASSERT_TRUE(ra.status.is_ok());
  ASSERT_TRUE(rb.status.is_ok());
  expect_assignments_equal(*a.state, *b.state);
  expect_metrics_equal(*a.state, *b.state, *a.rc, sa.critical());
}

TEST(EcoBatchTest, CapacityDeltaAndItsUndoKeepOverflowCountersExact) {
  core::Prepared a = batch_bench();
  EcoSession sa(a.design.get(), a.state.get(), a.rc.get());
  const grid::GridGraph& g = a.design->grid;
  using assign::AssignStateAudit;

  // The two busiest horizontal edges: zeroing their capacity must show up
  // in the wire-overflow counter.
  const int h = first_horizontal(g);
  std::vector<std::pair<int, int>> busy;  // (usage, edge)
  for (int e = 0; e < g.num_edges_on_layer(h); ++e) {
    busy.emplace_back(a.state->wire_usage(h, e), e);
  }
  std::sort(busy.rbegin(), busy.rend());
  ASSERT_GT(busy[1].first, 0);
  auto delta_for = [&](int edge, int cap) {
    return Delta::capacity_adjusted(h, edge % (g.xsize() - 1), edge / (g.xsize() - 1), cap);
  };

  const long wire0 = a.state->wire_overflow();
  ASSERT_TRUE(sa.apply(delta_for(busy[0].second, 0)).is_ok());
  EXPECT_TRUE(AssignStateAudit::counters_match_recount(*a.state));
  EXPECT_GT(a.state->wire_overflow(), wire0);

  // A failing batch runs the capacity undo lambda: counters return to the
  // pre-batch values and still match a recount.
  const long wire1 = a.state->wire_overflow();
  const long via1 = a.state->via_overflow();
  const int cap1 = g.edge_capacity(h, busy[1].second);
  const std::vector<Delta> batch = {delta_for(busy[1].second, 0), Delta::net_removed(999999)};
  ASSERT_FALSE(sa.apply_batch(batch).is_ok());
  EXPECT_TRUE(AssignStateAudit::counters_match_recount(*a.state));
  EXPECT_EQ(a.state->wire_overflow(), wire1);
  EXPECT_EQ(a.state->via_overflow(), via1);
  EXPECT_EQ(g.edge_capacity(h, busy[1].second), cap1);
}

}  // namespace
}  // namespace cpla::eco
