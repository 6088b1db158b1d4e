// Vertex programs for the GraphChi-like PSW engine: the four workloads of
// the paper's Fig 22 comparison (PageRank, WCC, ALS, Belief Propagation),
// written vertex-centrically with data-on-edges, as GraphChi requires.
#ifndef XSTREAM_BASELINES_PSW_PROGRAMS_H_
#define XSTREAM_BASELINES_PSW_PROGRAMS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "algorithms/dense_solver.h"
#include "baselines/graphchi_like.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {

// PageRank: in-edge values carry the neighbour's rank share.
struct PswPageRank {
  using VertexValue = float;
  using EdgeValue = float;

  explicit PswPageRank(uint64_t num_vertices) : n_(num_vertices) {}

  void InitVertex(VertexId /*v*/, uint32_t /*out_degree*/, VertexValue& value) const {
    value = 1.0f / static_cast<float>(n_);
  }

  EdgeValue InitEdge(VertexId /*src*/, VertexId /*dst*/, float /*w*/,
                     uint32_t src_out_degree) const {
    // Seed edges with the share the first synchronous iteration would see.
    return src_out_degree > 0
               ? 1.0f / static_cast<float>(n_) / static_cast<float>(src_out_degree)
               : 0.0f;
  }

  template <typename Ctx>
  bool Update(Ctx& ctx) const {
    float sum = 0.0f;
    ctx.ForEachInEdge([&sum](VertexId, float, const float& share) { sum += share; });
    float rank = 0.15f / static_cast<float>(n_) + 0.85f * sum;
    ctx.value() = rank;
    uint32_t deg = ctx.out_degree();
    float share = deg > 0 ? rank / static_cast<float>(deg) : 0.0f;
    ctx.ForEachOutEdge([share](VertexId, float, float& value) { value = share; });
    return true;
  }

 private:
  uint64_t n_;
};

// WCC: min-label propagation through edge values. Converges to the exact
// per-component minimum label regardless of the asynchronous sweep order.
struct PswWcc {
  using VertexValue = uint32_t;
  using EdgeValue = uint32_t;

  void InitVertex(VertexId v, uint32_t, VertexValue& value) const { value = v; }

  EdgeValue InitEdge(VertexId src, VertexId dst, float, uint32_t) const {
    return std::min(src, dst);
  }

  template <typename Ctx>
  bool Update(Ctx& ctx) const {
    uint32_t label = ctx.value();
    ctx.ForEachInEdge([&label](VertexId, float, const uint32_t& l) {
      label = std::min(label, l);
    });
    bool changed = label < ctx.value();
    ctx.value() = label;
    ctx.ForEachOutEdge([label](VertexId, float, uint32_t& value) {
      value = std::min(value, label);
    });
    return changed;
  }
};

// ALS: edge values carry the writer's latent vector; weights carry ratings.
struct PswAls {
  static constexpr uint32_t kFactors = 8;
  static constexpr float kLambda = 0.1f;

  struct Vec {
    float f[kFactors];
  };
  using VertexValue = Vec;
  using EdgeValue = Vec;

  explicit PswAls(uint64_t seed = 17) : seed_(seed) {}

  void InitVertex(VertexId v, uint32_t, VertexValue& value) const {
    for (uint32_t i = 0; i < kFactors; ++i) {
      value.f[i] = 0.1f + 0.9f *
                             static_cast<float>(
                                 SplitMix64(seed_ ^ (uint64_t{v} * kFactors + i)) >> 40) *
                             (1.0f / static_cast<float>(1 << 24));
    }
  }

  EdgeValue InitEdge(VertexId src, VertexId, float, uint32_t) const {
    EdgeValue e;
    InitVertex(src, 0, e);
    return e;
  }

  template <typename Ctx>
  bool Update(Ctx& ctx) const {
    constexpr uint32_t kTriangle = kFactors * (kFactors + 1) / 2;
    float ata[kTriangle] = {};
    float atb[kFactors] = {};
    uint32_t ratings = 0;
    ctx.ForEachInEdge([&](VertexId, float rating, const Vec& nbr) {
      uint32_t t = 0;
      for (uint32_t i = 0; i < kFactors; ++i) {
        for (uint32_t j = i; j < kFactors; ++j) {
          ata[t++] += nbr.f[i] * nbr.f[j];
        }
        atb[i] += rating * nbr.f[i];
      }
      ++ratings;
    });
    if (ratings > 0) {
      SolveRegularizedNormalEquations<kFactors>(
          ata, atb, kLambda * static_cast<float>(ratings), ctx.value().f);
    }
    Vec mine = ctx.value();
    ctx.ForEachOutEdge([&mine](VertexId, float, Vec& value) { value = mine; });
    return true;
  }

 private:
  uint64_t seed_;
};

// Belief propagation: edge values carry the incoming message pair.
struct PswBp {
  struct Msg {
    float m0;
    float m1;
  };
  using VertexValue = Msg;  // belief
  using EdgeValue = Msg;    // message from src

  explicit PswBp(uint64_t seed = 23, float epsilon = 0.1f, float seed_fraction = 0.05f)
      : seed_(seed), epsilon_(epsilon), seed_fraction_(seed_fraction) {}

  Msg PriorOf(VertexId v) const {
    uint64_t h = SplitMix64(seed_ ^ (uint64_t{v} + 0x517c));
    double u = static_cast<double>(h >> 11) * (1.0 / static_cast<double>(1ULL << 53));
    if (u < seed_fraction_) {
      bool one = (h & 1) != 0;
      return Msg{one ? 0.05f : 0.95f, one ? 0.95f : 0.05f};
    }
    return Msg{0.5f, 0.5f};
  }

  void InitVertex(VertexId v, uint32_t, VertexValue& value) const { value = PriorOf(v); }

  EdgeValue InitEdge(VertexId, VertexId, float, uint32_t) const { return Msg{0.5f, 0.5f}; }

  template <typename Ctx>
  bool Update(Ctx& ctx) const {
    Msg prior = PriorOf(ctx.id());
    float l0 = std::log(std::max(prior.m0, 1e-12f));
    float l1 = std::log(std::max(prior.m1, 1e-12f));
    ctx.ForEachInEdge([&](VertexId, float, const Msg& m) {
      l0 += std::log(std::max(m.m0, 1e-12f));
      l1 += std::log(std::max(m.m1, 1e-12f));
    });
    float mx = std::max(l0, l1);
    float e0 = std::exp(l0 - mx);
    float e1 = std::exp(l1 - mx);
    Msg belief{e0 / (e0 + e1), e1 / (e0 + e1)};
    ctx.value() = belief;
    float o0 = belief.m0 * (1.0f - epsilon_) + belief.m1 * epsilon_;
    float o1 = belief.m0 * epsilon_ + belief.m1 * (1.0f - epsilon_);
    float z = o0 + o1;
    Msg out{o0 / z, o1 / z};
    ctx.ForEachOutEdge([&out](VertexId, float, Msg& value) { value = out; });
    return true;
  }

 private:
  uint64_t seed_;
  float epsilon_;
  float seed_fraction_;
};

}  // namespace xstream

#endif  // XSTREAM_BASELINES_PSW_PROGRAMS_H_
