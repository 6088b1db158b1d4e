// k-Core decomposition (shipped in the original X-Stream release alongside
// the paper's §5.2 suite).
//
// The k-core is the maximal subgraph where every vertex has degree >= k,
// obtained by iteratively peeling lower-degree vertices. Edge-centric
// formulation over an undirected (both-directions) edge list:
//   phase 0  — degree counting (one update per edge to its destination);
//   rounds   — a vertex whose degree drops below k marks itself removed and,
//              in the next round, scatters one decrement to each neighbour
//              (announced exactly once, like MIS's announcements);
// terminating when a round produces no updates. Survivors form the k-core.
#ifndef XSTREAM_ALGORITHMS_KCORES_H_
#define XSTREAM_ALGORITHMS_KCORES_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct KCoreAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  explicit KCoreAlgorithm(uint32_t k) : k_(k) {}

  struct VertexState {
    uint32_t degree = 0;
    uint8_t removed = 0;
    uint8_t announced = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint8_t kind;  // 0 = degree increment (phase 0), 1 = removal decrement
  };
#pragma pack(pop)

  void Init(VertexId /*v*/, VertexState& s) const {
    s.degree = 0;
    s.removed = 0;
    s.announced = 0;
  }

  void BeforeIteration(uint64_t iter) { phase_ = iter; }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (phase_ == 0) {
      out.dst = e.dst;
      out.kind = 0;
      return true;
    }
    if (src.removed && !src.announced) {
      out.dst = e.dst;
      out.kind = 1;
      return true;
    }
    return false;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (u.kind == 0) {
      dst.degree += 1;
    } else if (dst.degree > 0) {
      dst.degree -= 1;
    }
    return true;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    if (s.removed) {
      if (!s.announced && phase_ > 0) {
        s.announced = 1;  // its decrements went out this round
      }
      return;
    }
    // Initial peel right after the degree phase, re-checks every round.
    if (s.degree < k_) {
      s.removed = 1;
    }
  }

 private:
  uint32_t k_;
  uint64_t phase_ = 0;
};

static_assert(EdgeCentricAlgorithm<KCoreAlgorithm>);

struct KCoreResult {
  std::vector<uint8_t> in_core;
  uint64_t core_size = 0;
  RunStats stats;
};

// Runs the peeling to fixpoint on an undirected (both-directions) edge list.
// `Algo` may be a type derived from KCoreAlgorithm (the engine's algorithm).
template <typename Algo = KCoreAlgorithm, typename Engine>
KCoreResult RunKCore(Engine& engine, uint32_t k) {
  Algo algo(k);
  KCoreResult result;
  result.stats = engine.Run(algo);
  result.in_core.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v,
                                 const KCoreAlgorithm::VertexState& s) {
    result.in_core[v] = s.removed ? 0 : 1;
    result.core_size += result.in_core[v];
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_KCORES_H_
