// Conductance (paper §5.2, citing [20]): for a vertex set S,
// phi(S) = cross_edges(S, V\S) / min(vol(S), vol(V\S)).
//
// One scatter-gather round: every edge sends its source's side to the
// destination; gather counts received updates (the in-volume, equal to
// degree volume when both edge directions are present) and cross edges. The
// final ratio comes from a vertex fold.
#ifndef XSTREAM_ALGORITHMS_CONDUCTANCE_H_
#define XSTREAM_ALGORITHMS_CONDUCTANCE_H_

#include <algorithm>
#include <cstdint>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

struct ConductanceAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  // side(v) = hash(seed, v) & 1 — a pseudo-random balanced cut, matching the
  // paper's use of conductance as a pure streaming kernel.
  explicit ConductanceAlgorithm(uint64_t seed = 7) : seed_(seed) {}

  struct VertexState {
    uint32_t in_volume = 0;
    uint32_t cross = 0;
    uint8_t side = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint8_t src_side;
  };
#pragma pack(pop)

  uint8_t SideOf(VertexId v) const {
    return static_cast<uint8_t>(SplitMix64(seed_ ^ (uint64_t{v} + 0x9e37)) & 1);
  }

  void Init(VertexId v, VertexState& s) const {
    s.side = SideOf(v);
    s.in_volume = 0;
    s.cross = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    out.dst = e.dst;
    out.src_side = src.side;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    dst.in_volume += 1;
    if (u.src_side != dst.side) {
      dst.cross += 1;
    }
    return true;
  }

 private:
  uint64_t seed_;
};

static_assert(EdgeCentricAlgorithm<ConductanceAlgorithm>);

struct ConductanceResult {
  double conductance = 0.0;
  uint64_t cross_edges = 0;
  uint64_t volume_s = 0;
  uint64_t volume_rest = 0;
  RunStats stats;
};

// `Algo` may be a type derived from ConductanceAlgorithm (the engine's
// algorithm).
template <typename Algo = ConductanceAlgorithm, typename Engine>
ConductanceResult RunConductance(Engine& engine, uint64_t seed = 7) {
  Algo algo(seed);
  ConductanceResult result;
  result.stats = engine.Run(algo, 1);
  struct Acc {
    uint64_t cross = 0, vol_s = 0, vol_rest = 0;
  };
  Acc acc = engine.VertexFold(Acc{}, [](Acc a, VertexId /*v*/,
                                        const ConductanceAlgorithm::VertexState& s) {
    a.cross += s.cross;
    if (s.side) {
      a.vol_s += s.in_volume;
    } else {
      a.vol_rest += s.in_volume;
    }
    return a;
  });
  result.cross_edges = acc.cross;
  result.volume_s = acc.vol_s;
  result.volume_rest = acc.vol_rest;
  uint64_t denom = std::min(acc.vol_s, acc.vol_rest);
  result.conductance = denom > 0 ? static_cast<double>(acc.cross) / static_cast<double>(denom)
                                 : 0.0;
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_CONDUCTANCE_H_
