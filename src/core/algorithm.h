// The edge-centric scatter-gather programming model (paper §2, Fig 2).
//
// An algorithm supplies:
//   * VertexState — the mutable per-vertex data ("the state of the
//     computation is stored in the vertices"). Trivially copyable: states
//     are bulk-loaded/stored by the out-of-core engine.
//   * Update — the record sent along an edge. Trivially copyable with a
//     public `dst` member naming the destination vertex: updates are moved
//     by byte shuffles and routed to the partition owning `dst`.
//   * Init(v, state)        — vertex initialization (via vertex iteration,
//     §2.5).
//   * Scatter(src_state, edge, out) -> bool — edge-centric scatter: given
//     the source vertex's state and an edge, decide whether to send an
//     update; fill `out` and return true to emit.
//   * Gather(dst_state, update) -> bool — edge-centric gather: fold one
//     update into the destination vertex's state; return true if the state
//     changed (statistics only).
//
// Optional hooks, detected structurally:
//   * BeforeIteration(iter)  — phase bookkeeping; runs single-threaded
//     before each scatter. Scatter/Gather themselves must be safe to call
//     concurrently (they may only mutate the state reference they're given).
//   * EndVertex(v, state)    — per-vertex epilogue after the partition's
//     gather completes (e.g. promote "next active" flags). Gather for a
//     partition only touches that partition's vertices, so running this
//     per-partition is equivalent to a global pass after the gather phase.
//   * Done(iteration_stats) -> bool — extra termination criterion; the
//     engines always stop when a scatter produces zero updates.
//   * Active(state) -> bool  — selective scheduling. Contract: Scatter emits
//     nothing from a source vertex whose state is not Active, so a partition
//     with no Active vertex need not stream its edges. The driver evaluates
//     it where it already visits every vertex (after Init, and after each
//     partition's EndVertex pass) and skips partitions without an Active
//     vertex in the next scatter; anything that rewrites states behind the
//     algorithm's back (VertexMap, checkpoint loads) makes every partition
//     eligible again until the next gather. Frontier algorithms opt in with
//     `return s.active;`; algorithms whose every vertex scatters (PageRank)
//     leave it out and pay nothing.
//
// Optional trait:
//   * static constexpr bool kReadsEdgeWeight = false — Scatter never reads
//     `edge.weight`. The stores then keep the algorithm's edges as 8-byte
//     EdgePair records instead of 12-byte Edges (a third fewer bytes per
//     scan), and Scatter sees weight 0. Absent means true.
#ifndef XSTREAM_CORE_ALGORITHM_H_
#define XSTREAM_CORE_ALGORITHM_H_

#include <concepts>
#include <type_traits>

#include "core/stats.h"
#include "graph/types.h"

namespace xstream {

template <typename A>
concept EdgeCentricAlgorithm = requires(A a, const typename A::VertexState& src,
                                        typename A::VertexState& state,
                                        const typename A::Update& u, typename A::Update& out,
                                        const Edge& e, VertexId v) {
  requires std::is_trivially_copyable_v<typename A::VertexState>;
  requires std::is_trivially_copyable_v<typename A::Update>;
  { a.Init(v, state) } -> std::same_as<void>;
  { a.Scatter(src, e, out) } -> std::convertible_to<bool>;
  { a.Gather(state, u) } -> std::convertible_to<bool>;
  { u.dst } -> std::convertible_to<VertexId>;
};

template <typename A>
concept HasBeforeIteration = requires(A a, uint64_t iter) {
  { a.BeforeIteration(iter) } -> std::same_as<void>;
};

template <typename A>
concept HasEndVertex = requires(A a, VertexId v, typename A::VertexState& s) {
  { a.EndVertex(v, s) } -> std::same_as<void>;
};

template <typename A>
concept HasActive = requires(const A a, const typename A::VertexState& s) {
  { a.Active(s) } -> std::convertible_to<bool>;
};

template <typename A>
concept HasDone = requires(A a, const IterationStats& stats) {
  { a.Done(stats) } -> std::convertible_to<bool>;
};

// Whether A's Scatter reads edge weights (the kReadsEdgeWeight trait,
// default true).
template <typename A>
inline constexpr bool ReadsEdgeWeight = [] {
  if constexpr (requires { A::kReadsEdgeWeight; }) {
    return static_cast<bool>(A::kReadsEdgeWeight);
  } else {
    return true;
  }
}();

// The record A's edge streams store: the whole Edge when it reads weights,
// an EdgePair otherwise.
template <typename A>
using StoredEdge = std::conditional_t<ReadsEdgeWeight<A>, Edge, EdgePair>;

}  // namespace xstream

#endif  // XSTREAM_CORE_ALGORITHM_H_
