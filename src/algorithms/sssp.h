// Single-Source Shortest Paths (Bellman-Ford flavoured, paper §5.2).
//
// A vertex whose tentative distance improved scatters dist+w along its
// out-edges; gather keeps the minimum. Converges in at most |V| iterations
// for non-negative weights; in practice a small multiple of the weighted
// diameter.
#ifndef XSTREAM_ALGORITHMS_SSSP_H_
#define XSTREAM_ALGORITHMS_SSSP_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct SsspAlgorithm {
  explicit SsspAlgorithm(VertexId root) : root_(root) {}

  struct VertexState {
    float dist = std::numeric_limits<float>::infinity();
    uint8_t active = 0;
    uint8_t next_active = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float dist;
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    s.dist = (v == root_) ? 0.0f : std::numeric_limits<float>::infinity();
    s.active = (v == root_) ? 1 : 0;
    s.next_active = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (!src.active) {
      return false;
    }
    out.dst = e.dst;
    out.dist = src.dist + e.weight;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (u.dist < dst.dist) {
      dst.dist = u.dist;
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

 private:
  VertexId root_;
};
static_assert(ReadsEdgeWeight<SsspAlgorithm>, "Scatter reads edge weights");

static_assert(EdgeCentricAlgorithm<SsspAlgorithm>);

struct SsspResult {
  std::vector<float> dist;  // +inf = unreachable
  RunStats stats;
};

// `Algo` may be a type derived from SsspAlgorithm (the engine's algorithm).
template <typename Algo = SsspAlgorithm, typename Engine>
SsspResult RunSssp(Engine& engine, VertexId root, uint64_t max_iterations = UINT64_MAX) {
  Algo algo(root);
  SsspResult result;
  result.stats = engine.Run(algo, max_iterations);
  result.dist.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const SsspAlgorithm::VertexState& s) {
    result.dist[v] = s.dist;
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_SSSP_H_
