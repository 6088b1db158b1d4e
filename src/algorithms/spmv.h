// SpMV (paper §5.2): y = A·x for the weighted adjacency matrix A, one value
// per vertex. A single scatter-gather round: scatter pushes w·x[src] to dst,
// gather accumulates into y[dst].
#ifndef XSTREAM_ALGORITHMS_SPMV_H_
#define XSTREAM_ALGORITHMS_SPMV_H_

#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

struct SpmvAlgorithm {
  // x[v] is derived deterministically from (seed, v) so the out-of-core and
  // in-memory engines compute the same product without sharing an array.
  explicit SpmvAlgorithm(uint64_t seed = 0) : seed_(seed) {}

  struct VertexState {
    float x = 0.0f;
    float y = 0.0f;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float value;
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    // Uniform in [0,1): the mix of (seed, v) keeps runs reproducible.
    s.x = static_cast<float>(SplitMix64(seed_ ^ (uint64_t{v} + 1)) >> 40) *
          (1.0f / static_cast<float>(1 << 24));
    s.y = 0.0f;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    out.dst = e.dst;
    out.value = e.weight * src.x;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    dst.y += u.value;
    return true;
  }

 private:
  uint64_t seed_;
};
static_assert(ReadsEdgeWeight<SpmvAlgorithm>, "Scatter reads edge weights");

static_assert(EdgeCentricAlgorithm<SpmvAlgorithm>);

struct SpmvResult {
  std::vector<float> y;
  RunStats stats;
};

template <typename Engine>
SpmvResult RunSpmv(Engine& engine, uint64_t seed = 0) {
  SpmvAlgorithm algo(seed);
  SpmvResult result;
  result.stats = engine.Run(algo, 1);  // one round is the whole product
  result.y.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const SpmvAlgorithm::VertexState& s) {
    result.y[v] = s.y;
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_SPMV_H_
