// HyperANF (paper §5.3, citing Boldi, Rosa & Vigna [21]).
//
// The paper implements HyperANF *in X-Stream* to measure the neighborhood
// function N(t) — the number of vertex pairs within distance t — and reads
// the graph's effective diameter off the number of steps until N(t) stops
// growing (Fig 13). Each vertex keeps a HyperLogLog counter of the vertices
// known to be within t hops; one scatter-gather round unions every vertex's
// counter into its neighbours'. A vertex scatters only when its counter
// changed, so the computation reaches zero updates exactly when the
// neighborhood function has converged.
#ifndef XSTREAM_ALGORITHMS_HYPERANF_H_
#define XSTREAM_ALGORITHMS_HYPERANF_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/algorithm.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

struct HyperAnfAlgorithm {
  // Scatter never reads edge weights: stream 8-byte EdgePair records.
  static constexpr bool kReadsEdgeWeight = false;

  // 32 registers => relative std deviation ~1.04/sqrt(32) ≈ 18%, plenty for
  // detecting N(t) convergence.
  static constexpr uint32_t kRegisters = 32;
  static constexpr uint32_t kRegisterBits = 5;  // log2(kRegisters)

  explicit HyperAnfAlgorithm(uint64_t seed = 29) : seed_(seed) {}

  struct VertexState {
    uint8_t regs[kRegisters];
    uint8_t active = 0;
    uint8_t next_active = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    uint8_t regs[kRegisters];
  };
#pragma pack(pop)

  void Init(VertexId v, VertexState& s) const {
    for (auto& r : s.regs) {
      r = 0;
    }
    // Insert the vertex itself: low bits pick the register, the rank of the
    // first set bit of the remaining hash is the register value.
    uint64_t h = SplitMix64(seed_ ^ (uint64_t{v} + 0xabcd));
    uint32_t idx = static_cast<uint32_t>(h & (kRegisters - 1));
    uint64_t w = (h >> kRegisterBits) | (uint64_t{1} << 58);  // guard bit bounds rho
    uint8_t rho = static_cast<uint8_t>(std::countr_zero(w) + 1);
    s.regs[idx] = rho;
    s.active = 1;
    s.next_active = 0;
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    if (!src.active) {
      return false;
    }
    out.dst = e.dst;
    for (uint32_t i = 0; i < kRegisters; ++i) {
      out.regs[i] = src.regs[i];
    }
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    bool grew = false;
    for (uint32_t i = 0; i < kRegisters; ++i) {
      if (u.regs[i] > dst.regs[i]) {
        dst.regs[i] = u.regs[i];
        grew = true;
      }
    }
    if (grew) {
      dst.next_active = 1;
    }
    return grew;
  }

  void EndVertex(VertexId /*v*/, VertexState& s) const {
    s.active = s.next_active;
    s.next_active = 0;
  }

  // Scatter emits nothing from an inactive vertex (selective scheduling).
  bool Active(const VertexState& s) const { return s.active != 0; }

  // Standard HyperLogLog estimate of the set represented by one counter.
  static double Estimate(const VertexState& s) {
    double sum = 0.0;
    int zeros = 0;
    for (uint32_t i = 0; i < kRegisters; ++i) {
      sum += std::ldexp(1.0, -static_cast<int>(s.regs[i]));
      zeros += (s.regs[i] == 0) ? 1 : 0;
    }
    constexpr double kAlpha = 0.697;  // alpha_32
    double m = kRegisters;
    double e = kAlpha * m * m / sum;
    if (e <= 2.5 * m && zeros > 0) {
      e = m * std::log(m / static_cast<double>(zeros));  // small-range correction
    }
    return e;
  }

 private:
  uint64_t seed_;
};

static_assert(EdgeCentricAlgorithm<HyperAnfAlgorithm>);

struct HyperAnfResult {
  uint32_t steps = 0;                        // iterations until convergence
  std::vector<double> neighborhood_function; // N(t), t = 0..steps
  RunStats stats;
};

// Runs HyperANF to convergence; the step count approximates the diameter
// (registers can saturate a hop early, so steps <= true diameter). `Algo`
// may be a type derived from HyperAnfAlgorithm (the engine's algorithm).
template <typename Algo = HyperAnfAlgorithm, typename Engine>
HyperAnfResult RunHyperAnf(Engine& engine, uint64_t seed = 29, uint32_t max_steps = 1 << 20) {
  using VS = HyperAnfAlgorithm::VertexState;
  Algo algo(seed);
  HyperAnfResult result;

  engine.VertexMap([&algo](VertexId v, VS& s) { algo.Init(v, s); });
  auto estimate_total = [&engine]() {
    return engine.VertexFold(0.0, [](double acc, VertexId /*v*/, const VS& s) {
      return acc + HyperAnfAlgorithm::Estimate(s);
    });
  };
  result.neighborhood_function.push_back(estimate_total());  // N(0) ≈ |V|

  for (uint32_t step = 0; step < max_steps; ++step) {
    IterationStats iter = engine.RunIteration(algo);
    if (iter.updates_generated == 0) {
      break;
    }
    result.neighborhood_function.push_back(estimate_total());
    if (iter.vertices_changed == 0) {
      break;
    }
    result.steps = step + 1;
  }
  result.stats = engine.stats();
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_HYPERANF_H_
