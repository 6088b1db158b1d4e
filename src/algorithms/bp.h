// Bayesian Belief Propagation (paper §5.2, citing Kang et al.'s
// billion-scale BP [35]; "5 iterations").
//
// Binary-state loopy BP with all state held in vertices (the X-Stream
// model): each vertex keeps a belief over {0,1}; per iteration every vertex
// sends the message its belief induces through the edge potential
// psi = [[1-eps, eps], [eps, 1-eps]], and accumulates incoming messages in
// the log domain. As in Kang et al.'s scalable formulation, the per-edge
// reverse-message division is dropped — beliefs converge to the same
// fixpoint family for the smoothing potentials used here. A deterministic
// subset of vertices carries informative priors ("seed" beliefs); the rest
// start uniform.
#ifndef XSTREAM_ALGORITHMS_BP_H_
#define XSTREAM_ALGORITHMS_BP_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

struct BpAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  explicit BpAlgorithm(uint64_t seed = 23, float epsilon = 0.1f, float seed_fraction = 0.05f)
      : seed_(seed), epsilon_(epsilon), seed_fraction_(seed_fraction) {}

  struct VertexState {
    float belief0 = 0.5f;
    float belief1 = 0.5f;
    float acc0 = 0.0f;  // log-domain accumulator of incoming messages
    float acc1 = 0.0f;
    float prior0 = 0.5f;
    float prior1 = 0.5f;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float m0;
    float m1;
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    uint64_t h = SplitMix64(seed_ ^ (uint64_t{v} + 0x517c));
    double u = static_cast<double>(h >> 11) * (1.0 / static_cast<double>(1ULL << 53));
    if (u < seed_fraction_) {
      // Observed vertex: strong prior toward state h&1.
      bool one = (h & 1) != 0;
      s.prior0 = one ? 0.05f : 0.95f;
      s.prior1 = one ? 0.95f : 0.05f;
    } else {
      s.prior0 = 0.5f;
      s.prior1 = 0.5f;
    }
    s.belief0 = s.prior0;
    s.belief1 = s.prior1;
    s.acc0 = 0.0f;
    s.acc1 = 0.0f;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    // Message: m(x_dst) = sum_{x_src} belief(x_src) * psi(x_src, x_dst).
    float m0 = src.belief0 * (1.0f - epsilon_) + src.belief1 * epsilon_;
    float m1 = src.belief0 * epsilon_ + src.belief1 * (1.0f - epsilon_);
    float z = m0 + m1;
    out.dst = e.dst;
    out.m0 = m0 / z;
    out.m1 = m1 / z;
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    dst.acc0 += std::log(std::max(u.m0, 1e-12f));
    dst.acc1 += std::log(std::max(u.m1, 1e-12f));
    return true;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    // belief ∝ prior * exp(acc); normalize via the max for stability.
    float l0 = std::log(std::max(s.prior0, 1e-12f)) + s.acc0;
    float l1 = std::log(std::max(s.prior1, 1e-12f)) + s.acc1;
    float m = std::max(l0, l1);
    float e0 = std::exp(l0 - m);
    float e1 = std::exp(l1 - m);
    s.belief0 = e0 / (e0 + e1);
    s.belief1 = e1 / (e0 + e1);
    s.acc0 = 0.0f;
    s.acc1 = 0.0f;
  }

 private:
  uint64_t seed_;
  float epsilon_;
  float seed_fraction_;
};

static_assert(EdgeCentricAlgorithm<BpAlgorithm>);

struct BpResult {
  std::vector<float> belief1;  // P(state = 1) per vertex
  uint64_t confident = 0;      // vertices with max-belief > 0.9
  RunStats stats;
};

// `Algo` may be a type derived from BpAlgorithm (the engine's algorithm).
template <typename Algo = BpAlgorithm, typename Engine>
BpResult RunBp(Engine& engine, uint64_t iterations = 5, uint64_t seed = 23) {
  Algo algo(seed);
  BpResult result;
  result.stats = engine.Run(algo, iterations);
  result.belief1.resize(engine.num_vertices());
  engine.VertexFold(0, [&result](int acc, VertexId v, const BpAlgorithm::VertexState& s) {
    result.belief1[v] = s.belief1;
    if (s.belief0 > 0.9f || s.belief1 > 0.9f) {
      ++result.confident;
    }
    return acc;
  });
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_BP_H_
