// Weakly Connected Components via min-label propagation (paper §5.2).
//
// Every vertex starts labelled with its own id; active vertices scatter
// their label along out-edges; gather keeps the minimum. A vertex is active
// in iteration i+1 iff its label shrank in iteration i — the classic
// edge-centric WCC whose iteration count tracks the graph diameter
// (Fig 12b). Undirected semantics require the edge list to contain both
// directions (the standard X-Stream input convention).
#ifndef XSTREAM_ALGORITHMS_WCC_H_
#define XSTREAM_ALGORITHMS_WCC_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct WccAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  struct VertexState {
    VertexId label = 0;
    uint8_t active = 0;
    uint8_t next_active = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    VertexId label;
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    s.label = v;
    s.active = 1;
    s.next_active = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (!src.active) {
      return false;
    }
    out.dst = e.dst;
    out.label = src.label;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (u.label < dst.label) {
      dst.label = u.label;
      dst.next_active = 1;
      return true;
    }
    return false;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    s.active = s.next_active;
    s.next_active = 0;
  }

  // Scatter emits nothing from an inactive vertex (selective scheduling).
  bool Active(const VertexState& s) const { return s.active != 0; }
};

static_assert(EdgeCentricAlgorithm<WccAlgorithm>);

struct WccResult {
  std::vector<VertexId> labels;
  uint64_t num_components = 0;
  RunStats stats;
};

// Runs WCC to convergence on either engine and extracts component labels.
// `max_iterations` caps pathological high-diameter runs (Fig 12's "did not
// finish in a reasonable amount of time"). `Algo` may be a type derived from
// WccAlgorithm (the engine's algorithm).
template <typename Algo = WccAlgorithm, typename Engine>
WccResult RunWcc(Engine& engine, uint64_t max_iterations = UINT64_MAX) {
  Algo algo;
  WccResult result;
  result.stats = engine.Run(algo, max_iterations);
  result.labels.resize(engine.num_vertices());
  result.num_components = 0;
  engine.VertexFold(0, [&result](int acc, VertexId v,
                                 const WccAlgorithm::VertexState& s) {
    result.labels[v] = s.label;
    if (s.label == v) {
      ++result.num_components;
    }
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_WCC_H_
