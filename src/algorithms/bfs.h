// Breadth-first search in the edge-centric model.
//
// The frontier is implicit: a vertex whose level was set in iteration i
// scatters level+1 along its out-edges in iteration i+1. Every partition
// that holds a frontier vertex streams all of its edges — discovering the
// frontier by streaming is exactly the bandwidth-for-random-access trade
// the paper evaluates against specialized BFS implementations in Figs
// 19-21. Partitions with no frontier vertex are skipped (the Active hook),
// so the trade is paid per partition, not per graph.
#ifndef XSTREAM_ALGORITHMS_BFS_H_
#define XSTREAM_ALGORITHMS_BFS_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct BfsAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  explicit BfsAlgorithm(VertexId root) : root_(root) {}

  struct VertexState {
    uint32_t level = UINT32_MAX;
    uint8_t active = 0;
    uint8_t next_active = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint32_t level;
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    s.level = (v == root_) ? 0 : UINT32_MAX;
    s.active = (v == root_) ? 1 : 0;
    s.next_active = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (!src.active) {
      return false;
    }
    out.dst = e.dst;
    out.level = src.level + 1;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (dst.level == UINT32_MAX) {
      dst.level = u.level;
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

static_assert(EdgeCentricAlgorithm<BfsAlgorithm>);

struct BfsResult {
  std::vector<uint32_t> levels;  // UINT32_MAX = unreachable
  uint64_t reached = 0;
  RunStats stats;
};

// `Algo` may be a type derived from BfsAlgorithm (the engine's algorithm).
template <typename Algo = BfsAlgorithm, typename Engine>
BfsResult RunBfs(Engine& engine, VertexId root, uint64_t max_iterations = UINT64_MAX) {
  Algo algo(root);
  BfsResult result;
  result.stats = engine.Run(algo, max_iterations);
  result.levels.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const BfsAlgorithm::VertexState& s) {
    result.levels[v] = s.level;
    if (s.level != UINT32_MAX) {
      ++result.reached;
    }
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_BFS_H_
