#pragma once

// Canonical registry of the repo's determinism contract. This header is the
// single source of truth both for humans (DESIGN.md § Compile-time
// contracts links here) and for tools/cpla_lint.py, which parses the two
// arrays below and enforces, cross-file:
//
//   * determinism-fp-contract: every TU in kBitIdentityTUs must be compiled
//     with -ffp-contract=off (the linter parses the CMake lists, including
//     one level of ${var} indirection, to prove the flag is applied);
//   * determinism-omp-reduction: no `#pragma omp ... reduction(...)` and no
//     `#pragma omp atomic` float accumulation inside a registered TU —
//     reassociated or racing accumulation breaks bit-identity;
//   * unordered-iteration: no range-for over a std::unordered_{map,set} in
//     the directories listed in kOrderSensitiveDirs, where iteration order
//     feeds solver-visible structures (constraint rows, accumulation
//     order). Iterate a sorted container or a deterministic index instead;
//     genuinely order-independent loops carry a rationale'd
//     allow(unordered-iteration) suppression comment.
//
// To put a new TU under the bit-identity contract: add it to
// kBitIdentityTUs, add `-ffp-contract=off` to its COMPILE_OPTIONS in the
// owning CMakeLists.txt, and run `tools/cpla_lint.py --root .` — the lint
// fails until both halves agree (and keeps failing if either later drifts).

namespace cpla::contract {

// TUs whose results must be bit-identical across thread counts and replay
// (the ECO cache and the serve journal both replay their outputs and
// compare hashes). FMA contraction is compiler-discretionary, so these are
// pinned to -ffp-contract=off; reductions must accumulate in a pinned order
// (see DESIGN.md § Deterministic parallelism).
inline constexpr const char* kBitIdentityTUs[] = {
    // Incremental STA: an incremental TimingGraph::update() must be
    // bit-identical to a from-scratch build() on the same state, and the
    // top-K path report is replayed by tests against a brute-force oracle.
    "src/sta/timing_graph.cpp",
    "src/sta/path_enum.cpp",
    // Lagrangian sub-gradient backend: the net-level engine's parallel
    // pricing + ordered serial sums must be bitwise identical across
    // thread counts and repeated runs, and the partition-level engine's
    // picks feed the ECO replay cache.
    "src/lagr/net_engine.cpp",
    "src/core/lagr_engine.cpp",
};

// Directories where container iteration order can reach solver inputs
// (constraint ordering, pivot selection, accumulation order) and must
// therefore be deterministic.
inline constexpr const char* kOrderSensitiveDirs[] = {
    "src/core",
    "src/la",
    "src/lagr",
    "src/sdp",
    "src/sta",
};

}  // namespace cpla::contract
