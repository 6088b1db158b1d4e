// Maximal Independent Set (paper §5.2), Luby-style with fixed random
// priorities.
//
// Each vertex draws a deterministic pseudo-random priority. Per round,
// undecided vertices scatter their priority; a vertex whose priority beats
// every undecided neighbour joins the set; vertices that hear from an
// in-set neighbour drop out. A vertex that joined announces itself exactly
// once (the `announced` flag), so the computation reaches a fixpoint with
// zero updates once everyone is decided. The paper highlights MIS as the
// minimum-footprint algorithm ("a single byte ... a boolean variable"); our
// state also carries the priority and round-local flags used by the
// protocol.
#ifndef XSTREAM_ALGORITHMS_MIS_H_
#define XSTREAM_ALGORITHMS_MIS_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

struct MisAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  explicit MisAlgorithm(uint64_t seed = 11) : seed_(seed) {}

  enum Status : uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

  struct VertexState {
    uint64_t priority = 0;
    uint8_t status = kUndecided;
    uint8_t announced = 0;         // an In vertex has already told neighbours
    uint8_t beaten = 0;            // heard from a better undecided neighbour
    uint8_t killed = 0;            // heard from an In neighbour
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint64_t priority;
    uint8_t src_status;
  };
#pragma pack(pop)

  uint64_t PriorityOf(VertexId v) const {
    // Tie-broken by id in the low bits: priorities are unique.
    return (SplitMix64(seed_ ^ v) & ~uint64_t{0xffffffff}) | v;
  }

  void Init(VertexId v, VertexState& s) const {
    s.priority = PriorityOf(v);
    s.status = kUndecided;
    s.announced = 0;
    s.beaten = 0;
    s.killed = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (src.status == kOut || (src.status == kIn && src.announced)) {
      return false;
    }
    out.dst = e.dst;
    out.priority = src.priority;
    out.src_status = src.status;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (dst.status != kUndecided) {
      return false;
    }
    if (u.src_status == kIn) {
      dst.killed = 1;
      return true;
    }
    if (u.priority < dst.priority) {
      dst.beaten = 1;
      return true;
    }
    return false;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    if (s.status == kIn) {
      s.announced = 1;  // the round after joining, the announcement was sent
      return;
    }
    if (s.status != kUndecided) {
      return;
    }
    if (s.killed) {
      s.status = kOut;
    } else if (!s.beaten) {
      // Locally minimal among undecided neighbours: join the set.
      s.status = kIn;
    }
    s.beaten = 0;
    s.killed = 0;
  }

 private:
  uint64_t seed_;
};

static_assert(EdgeCentricAlgorithm<MisAlgorithm>);

struct MisResult {
  std::vector<uint8_t> in_set;
  uint64_t set_size = 0;
  RunStats stats;
};

// `Algo` may be a type derived from MisAlgorithm (the engine's algorithm).
template <typename Algo = MisAlgorithm, typename Engine>
MisResult RunMis(Engine& engine, uint64_t seed = 11) {
  Algo algo(seed);
  MisResult result;
  result.stats = engine.Run(algo);
  result.in_set.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const MisAlgorithm::VertexState& s) {
    result.in_set[v] = (s.status == MisAlgorithm::kIn) ? 1 : 0;
    result.set_size += result.in_set[v];
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_MIS_H_
