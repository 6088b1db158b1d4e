// Strongly Connected Components (paper §5.2, citing Salihoglu & Widom's
// Pregel-style coloring algorithm).
//
// The classic coloring/FW-BW scheme translated to edge-centric streaming:
// repeat until every vertex is assigned an SCC —
//   1. Forward coloring: unassigned vertices propagate the maximum vertex id
//      reachable along forward edges to a fixpoint ("colors").
//   2. Backward sweep: each color root (vertex whose color equals its own
//      id) claims, along *reverse* edges but only within its color region,
//      every vertex that can reach it; those vertices form one SCC.
//
// Backward propagation without random access is achieved by doubling the
// edge list: each original edge (u,v) is stored as (u,v,+1) and (v,u,-1) —
// the weight field carries the direction flag. Both record sets are
// streamed every iteration; the scatter filter picks the direction, which
// charges the full streaming cost of the unused half to the run (the waste
// trade-off of §5.3 made explicit).
#ifndef XSTREAM_ALGORITHMS_SCC_H_
#define XSTREAM_ALGORITHMS_SCC_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/logging.h"

namespace xstream {

// Builds the direction-flagged edge list consumed by SccAlgorithm.
inline EdgeList MakeSccEdgeList(const EdgeList& directed_edges) {
  EdgeList flagged;
  flagged.reserve(directed_edges.size() * 2);
  for (const Edge& e : directed_edges) {
    flagged.push_back(Edge{e.src, e.dst, +1.0f});
    flagged.push_back(Edge{e.dst, e.src, -1.0f});
  }
  return flagged;
}

struct SccAlgorithm {
  enum class Phase : uint8_t { kForward, kBackward };

  struct VertexState {
    uint32_t color = 0;
    uint32_t scc = kUnassigned;
    uint8_t active = 0;
    uint8_t next_active = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint32_t color;
  };
#pragma pack(pop)

  static constexpr uint32_t kUnassigned = UINT32_MAX;

  // Init is only used by the engine's Run() convenience, which the SCC
  // driver does not use; the driver re-initializes per round via VertexMap.
  void Init(VertexId v, VertexState& s) const {
    s.color = v;
    s.scc = kUnassigned;
    s.active = 1;
    s.next_active = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (phase == Phase::kForward) {
      if (e.weight < 0 || src.scc != kUnassigned || !src.active) {
        return false;
      }
      out.dst = e.dst;
      out.color = src.color;
      return true;
    }
    // Backward: claimed vertices recruit same-colored in-neighbours.
    if (e.weight > 0 || src.scc == kUnassigned || !src.active) {
      return false;
    }
    out.dst = e.dst;
    out.color = src.color;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (dst.scc != kUnassigned) {
      return false;
    }
    if (phase == Phase::kForward) {
      if (u.color > dst.color) {
        dst.color = u.color;
        dst.next_active = 1;
        return true;
      }
      return false;
    }
    if (dst.color == u.color) {
      dst.scc = u.color;
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

  Phase phase = Phase::kForward;
};
static_assert(ReadsEdgeWeight<SccAlgorithm>, "Scatter reads edge weights");

static_assert(EdgeCentricAlgorithm<SccAlgorithm>);

struct SccResult {
  std::vector<uint32_t> scc;  // scc[v] = id of v's SCC (a member vertex id)
  uint64_t num_sccs = 0;
  uint64_t rounds = 0;
  RunStats stats;
};

// Runs SCC on an engine built over MakeSccEdgeList(original_edges). `Algo`
// may be a type derived from SccAlgorithm (the engine's algorithm).
template <typename Algo = SccAlgorithm, typename Engine>
SccResult RunScc(Engine& engine) {
  using VS = SccAlgorithm::VertexState;
  Algo algo;
  SccResult result;

  // Global init: everything unassigned.
  engine.VertexMap([&algo](VertexId v, VS& s) { algo.Init(v, s); });

  uint64_t unassigned = engine.num_vertices();
  while (unassigned > 0) {
    ++result.rounds;
    // Forward coloring to fixpoint.
    engine.VertexMap([](VertexId v, VS& s) {
      if (s.scc == SccAlgorithm::kUnassigned) {
        s.color = v;
        s.active = 1;
        s.next_active = 0;
      } else {
        s.active = 0;
        s.next_active = 0;
      }
    });
    algo.phase = SccAlgorithm::Phase::kForward;
    while (engine.RunIteration(algo).updates_generated > 0) {
    }

    // Roots claim themselves, then recruit backward within their color.
    engine.VertexMap([](VertexId v, VS& s) {
      if (s.scc == SccAlgorithm::kUnassigned && s.color == v) {
        s.scc = v;
        s.active = 1;
      } else {
        s.active = 0;
      }
      s.next_active = 0;
    });
    algo.phase = SccAlgorithm::Phase::kBackward;
    while (engine.RunIteration(algo).updates_generated > 0) {
    }

    uint64_t remaining = engine.VertexFold(
        uint64_t{0}, [](uint64_t acc, VertexId /*v*/, const VS& s) {
          return acc + (s.scc == SccAlgorithm::kUnassigned ? 1 : 0);
        });
    XS_CHECK_LT(remaining, unassigned) << "SCC made no progress";
    unassigned = remaining;
  }

  result.stats = engine.stats();
  result.scc.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const VS& s) {
    result.scc[v] = s.scc;
    if (s.scc == v) {
      ++result.num_sccs;
    }
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_SCC_H_
