#pragma once

// Test-only audit of AssignState's running overflow counters: compares them
// with the state's private full recount (friend access).

#include <gtest/gtest.h>

#include "src/assign/state.hpp"

namespace cpla::assign {

struct AssignStateAudit {
  /// Success iff wire_overflow() and via_overflow() equal a full recount.
  static ::testing::AssertionResult counters_match_recount(const AssignState& state) {
    const AssignState::Overflow full = state.recount_overflow();
    if (state.wire_overflow() == full.wire && state.via_overflow() == full.via) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "counters wire=" << state.wire_overflow() << " via=" << state.via_overflow()
           << " but full recount wire=" << full.wire << " via=" << full.via;
  }
};

}  // namespace cpla::assign
