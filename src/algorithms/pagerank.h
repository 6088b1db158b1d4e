// PageRank (paper §5.2: "Pagerank [42] (5 iterations)").
//
// Pure scatter-gather needs the out-degree of each vertex, which X-Stream's
// API cannot read directly; it is computed with one extra edge-centric
// iteration whose updates are addressed *back to the source* (u.dst =
// e.src). Rank iterations then push rank/degree along edges; gather sums;
// the per-iteration vertex epilogue applies damping.
#ifndef XSTREAM_ALGORITHMS_PAGERANK_H_
#define XSTREAM_ALGORITHMS_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct PageRankAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  PageRankAlgorithm(uint64_t num_vertices, uint64_t rank_iterations)
      : num_vertices_(num_vertices), rank_iterations_(rank_iterations) {}

  struct VertexState {
    float rank = 0.0f;
    float sum = 0.0f;
    uint32_t degree = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float value;
  };
#pragma pack(pop)

  void Init(VertexId /*v*/, VertexState& s) const {
    s.rank = 1.0f / static_cast<float>(num_vertices_);
    s.sum = 0.0f;
    s.degree = 0;
  }

  void BeforeIteration(uint64_t iter) { phase_ = iter; }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (phase_ == 0) {
      // Degree-counting round: one "+1" addressed back to the source.
      out.dst = e.src;
      out.value = 1.0f;
      return true;
    }
    if (src.degree == 0) {
      return false;
    }
    out.dst = e.dst;
    out.value = src.rank / static_cast<float>(src.degree);
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (phase_ == 0) {
      dst.degree += 1;
    } else {
      dst.sum += u.value;
    }
    return true;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    if (phase_ == 0) {
      return;  // ranks stay at 1/N until the first rank round
    }
    s.rank = (1.0f - kDamping) / static_cast<float>(num_vertices_) + kDamping * s.sum;
    s.sum = 0.0f;
  }

  bool Done(const IterationStats& stats) const {
    // Phase 0 (degrees) + rank_iterations_ rank rounds.
    return stats.iteration + 1 >= rank_iterations_ + 1;
  }

  static constexpr float kDamping = 0.85f;

 private:
  uint64_t num_vertices_;
  uint64_t rank_iterations_;
  uint64_t phase_ = 0;
};

static_assert(EdgeCentricAlgorithm<PageRankAlgorithm>);

struct PageRankResult {
  std::vector<float> ranks;
  RunStats stats;
};

// `Algo` may be a type derived from PageRankAlgorithm (the engine's
// algorithm).
template <typename Algo = PageRankAlgorithm, typename Engine>
PageRankResult RunPageRank(Engine& engine, uint64_t iterations = 5) {
  Algo algo(engine.num_vertices(), iterations);
  PageRankResult result;
  result.stats = engine.Run(algo, iterations + 1);
  result.ranks.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v,
                                 const PageRankAlgorithm::VertexState& s) {
    result.ranks[v] = s.rank;
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_PAGERANK_H_
