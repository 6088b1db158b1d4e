// Minimum Cost Spanning Tree (paper §5.2, GHS [30] style).
//
// Borůvka/GHS rounds expressed edge-centrically:
//   1. Streaming phase (scatter-gather): every edge ships (weight, source
//      component) to its destination; each vertex keeps the lightest edge
//      arriving from a *different* component — by the cut property that edge
//      belongs to the MST (weights are unique after deterministic
//      tie-breaking).
//   2. Contraction phase (driver): the chosen edges hook components
//      together in a union-find; component labels are re-flattened into the
//      vertex states.
// Rounds repeat until no vertex sees a cross-component edge. The GHS
// convergecast is replaced by the union-find contraction — a |V|-sized
// in-memory structure, consistent with the paper's own optimization of
// keeping the vertex array memory-resident when it fits (§3.2); the
// edge-heavy work remains pure streaming.
#ifndef XSTREAM_ALGORITHMS_MCST_H_
#define XSTREAM_ALGORITHMS_MCST_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"

namespace xstream {

struct McstAlgorithm {
  struct VertexState {
    uint32_t component = 0;
    // Lightest cross-component edge seen this round (tie-broken on the
    // source component id, then source vertex id, for determinism).
    float best_weight = 0.0f;
    uint32_t best_src_comp = kNone;
    uint32_t best_src = kNone;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float weight;
    uint32_t src_comp;
    VertexId src;
  };
#pragma pack(pop)

  static constexpr uint32_t kNone = UINT32_MAX;

  void Init(VertexId v, VertexState& s) const {
    s.component = v;
    s.best_src_comp = kNone;
    s.best_src = kNone;
    s.best_weight = 0.0f;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    out.dst = e.dst;
    out.weight = e.weight;
    out.src_comp = src.component;
    out.src = e.src;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (u.src_comp == dst.component) {
      return false;  // internal edge: not a candidate
    }
    bool better = dst.best_src_comp == kNone || u.weight < dst.best_weight ||
                  (u.weight == dst.best_weight &&
                   (u.src_comp < dst.best_src_comp ||
                    (u.src_comp == dst.best_src_comp && u.src < dst.best_src)));
    if (better) {
      dst.best_weight = u.weight;
      dst.best_src_comp = u.src_comp;
      dst.best_src = u.src;
      return true;
    }
    return false;
  }
};
static_assert(ReadsEdgeWeight<McstAlgorithm>, "Scatter reads edge weights");

static_assert(EdgeCentricAlgorithm<McstAlgorithm>);

struct McstResult {
  double total_weight = 0.0;
  uint64_t tree_edges = 0;
  uint64_t rounds = 0;
  std::vector<uint32_t> component;  // spanning forest component per vertex
  RunStats stats;
};

// Runs MCST on an engine built over an undirected (both-directions) weighted
// edge list. Assumes unique weights after tie-breaking; the generators
// produce i.i.d. floats, so ties are measure-zero (and broken consistently).
template <typename Engine>
McstResult RunMcst(Engine& engine) {
  using VS = McstAlgorithm::VertexState;
  McstAlgorithm algo;
  McstResult result;
  uint64_t n = engine.num_vertices();

  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  engine.VertexMap([&algo](VertexId v, VS& s) { algo.Init(v, s); });

  for (;;) {
    ++result.rounds;
    // Reset per-round candidates, then stream all edges once.
    engine.VertexMap([](VertexId /*v*/, VS& s) {
      s.best_src_comp = McstAlgorithm::kNone;
      s.best_src = McstAlgorithm::kNone;
    });
    IterationStats iter = engine.RunIteration(algo);
    if (iter.updates_generated == 0) {
      break;  // isolated vertices only
    }

    // Reduce the per-vertex candidates to one lightest outgoing edge per
    // *component* (Borůvka's invariant: only the component-wide minimum is
    // guaranteed to be an MST edge by the cut property).
    struct Cand {
      float weight = 0.0f;
      uint32_t other_comp = McstAlgorithm::kNone;
      uint32_t src = McstAlgorithm::kNone;
      bool valid = false;
    };
    std::unordered_map<uint32_t, Cand> best;
    engine.VertexFold(0, [&](int acc, VertexId /*v*/, const VS& s) {
      if (s.best_src_comp == McstAlgorithm::kNone) {
        return acc;
      }
      uint32_t root = find(s.component);
      Cand& c = best[root];
      bool better = !c.valid || s.best_weight < c.weight ||
                    (s.best_weight == c.weight &&
                     (s.best_src_comp < c.other_comp ||
                      (s.best_src_comp == c.other_comp && s.best_src < c.src)));
      if (better) {
        c = Cand{s.best_weight, s.best_src_comp, s.best_src, true};
      }
      return acc;
    });

    // Hook each component along its winning edge. Two components choosing
    // edges to each other necessarily chose the same (unique-min) edge, so
    // the second union is a no-op and the weight is counted once.
    uint64_t merges = 0;
    for (const auto& [root, c] : best) {
      uint32_t a = find(root);
      uint32_t b = find(c.other_comp);
      if (a != b) {
        parent[std::max(a, b)] = std::min(a, b);
        result.total_weight += static_cast<double>(c.weight);
        ++result.tree_edges;
        ++merges;
      }
    }
    if (merges == 0) {
      break;  // every remaining candidate was already intra-component
    }
    // Flatten labels back into the vertex states for the next round.
    engine.VertexMap([&](VertexId /*v*/, VS& s) { s.component = find(s.component); });
  }

  result.component.resize(n);
  engine.VertexFold(0, [&](int acc, VertexId v, const VS& s) {
    result.component[v] = s.component;
    return acc;
  });
  result.stats = engine.stats();
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_MCST_H_
