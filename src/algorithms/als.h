// Alternating Least Squares for collaborative filtering (paper §5.2, citing
// Zhou et al.'s Netflix-prize ALS [55]; "requires a bipartite graph").
//
// Users occupy vertex ids [0, num_users), items [num_users, ...). Every
// rating is stored as a pair of directed edges carrying the rating in the
// weight field. One ALS half-step fixes one side's latent vectors and
// re-solves the other side's:
//   scatter — fixed-side vertices ship (rating, latent vector) to their
//             counterpart;
//   gather  — the receiving vertex accumulates the normal equations
//             A^T A += v v^T + lambda I, A^T b += r v;
//   vertex epilogue — solve the kFactors x kFactors system by Cholesky.
// The vertex state (vector + packed upper-triangular A^T A + A^T b) is
// ~250 bytes, matching the paper's note that ALS has the largest vertex
// footprint.
#ifndef XSTREAM_ALGORITHMS_ALS_H_
#define XSTREAM_ALGORITHMS_ALS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "algorithms/dense_solver.h"
#include "core/algorithm.h"
#include "graph/types.h"
#include "util/logging.h"
#include "util/rng.h"

namespace xstream {

struct AlsAlgorithm {
  static constexpr uint32_t kFactors = 8;
  static constexpr uint32_t kTriangle = kFactors * (kFactors + 1) / 2;
  static constexpr float kLambda = 0.1f;

  AlsAlgorithm(VertexId num_users, uint64_t seed = 17) : num_users_(num_users), seed_(seed) {}

  struct VertexState {
    float vec[kFactors];
    float ata[kTriangle];  // packed upper triangle of A^T A
    float atb[kFactors];
    uint32_t ratings = 0;
  };

#pragma pack(push, 1)
  struct Update {
    VertexId dst;
    float rating;
    float vec[kFactors];
  };
#pragma pack(pop)

  enum class Mode : uint8_t { kSolveUsers, kSolveItems, kEvaluate };

  bool IsUser(VertexId v) const { return v < num_users_; }

  void Init(VertexId v, VertexState& s) const {
    for (uint32_t i = 0; i < kFactors; ++i) {
      s.vec[i] = 0.1f + 0.9f * static_cast<float>(SplitMix64(seed_ ^ (uint64_t{v} * kFactors + i)) >> 40) *
                            (1.0f / static_cast<float>(1 << 24));
    }
    ClearAccumulators(s);
  }

  void BeforeIteration(uint64_t iter) {
    if (mode != Mode::kEvaluate) {
      // Engine iterations alternate: even = items scatter (users solved),
      // odd = users scatter (items solved).
      mode = (iter % 2 == 0) ? Mode::kSolveUsers : Mode::kSolveItems;
    }
  }

  bool Scatter(const VertexState& src, const Edge& e, Update& out) const {
    bool src_is_user = IsUser(e.src);
    // kSolveUsers and kEvaluate consume item-side vectors at the users.
    bool want_item_source = (mode != Mode::kSolveItems);
    if (src_is_user == want_item_source) {
      return false;
    }
    out.dst = e.dst;
    out.rating = e.weight;
    for (uint32_t i = 0; i < kFactors; ++i) {
      out.vec[i] = src.vec[i];
    }
    return true;
  }

  bool Gather(VertexState& dst, const Update& u) const {
    if (mode == Mode::kEvaluate) {
      float pred = 0.0f;
      for (uint32_t i = 0; i < kFactors; ++i) {
        pred += dst.vec[i] * u.vec[i];
      }
      float err = pred - u.rating;
      // Reuse the accumulators: atb[0] collects squared error, ratings the
      // rating count.
      dst.atb[0] += err * err;
      dst.ratings += 1;
      return true;
    }
    uint32_t t = 0;
    for (uint32_t i = 0; i < kFactors; ++i) {
      for (uint32_t j = i; j < kFactors; ++j) {
        dst.ata[t++] += u.vec[i] * u.vec[j];
      }
      dst.atb[i] += u.rating * u.vec[i];
    }
    dst.ratings += 1;
    return true;
  }

  void EndVertex(VertexId v, VertexState& s) const {
    if (mode == Mode::kEvaluate) {
      return;  // error sums are read by the driver, then re-initialized
    }
    bool solving_users = (mode == Mode::kSolveUsers);
    if (IsUser(v) != solving_users) {
      return;
    }
    if (s.ratings > 0) {
      SolveNormalEquations(s);
    }
    ClearAccumulators(s);
  }

  Mode mode = Mode::kSolveUsers;

 private:
  static void ClearAccumulators(VertexState& s) {
    for (auto& x : s.ata) {
      x = 0.0f;
    }
    for (auto& x : s.atb) {
      x = 0.0f;
    }
    s.ratings = 0;
  }

  // Solves (A^T A + lambda*n*I) x = A^T b in place.
  static void SolveNormalEquations(VertexState& s) {
    float reg = kLambda * static_cast<float>(s.ratings);
    SolveRegularizedNormalEquations<kFactors>(s.ata, s.atb, reg, s.vec);
  }

  VertexId num_users_;
  uint64_t seed_;
};
static_assert(ReadsEdgeWeight<AlsAlgorithm>, "Scatter reads edge weights");

static_assert(EdgeCentricAlgorithm<AlsAlgorithm>);

struct AlsResult {
  double rmse = 0.0;
  uint64_t ratings = 0;
  RunStats stats;
};

// Runs `iterations` full ALS sweeps (each = solve users + solve items), then
// one evaluation pass measuring training RMSE.
template <typename Engine>
AlsResult RunAls(Engine& engine, VertexId num_users, uint64_t iterations = 5,
                 uint64_t seed = 17) {
  using VS = AlsAlgorithm::VertexState;
  AlsAlgorithm algo(num_users, seed);
  AlsResult result;

  engine.VertexMap([&algo](VertexId v, VS& s) { algo.Init(v, s); });
  for (uint64_t i = 0; i < 2 * iterations; ++i) {
    engine.RunIteration(algo);
  }

  // Evaluation pass: users accumulate squared error against item vectors.
  algo.mode = AlsAlgorithm::Mode::kEvaluate;
  engine.VertexMap([](VertexId /*v*/, VS& s) {
    s.atb[0] = 0.0f;
    s.ratings = 0;
  });
  engine.RunIteration(algo);

  struct Acc {
    double se = 0.0;
    uint64_t n = 0;
  };
  Acc acc = engine.VertexFold(Acc{}, [&algo](Acc a, VertexId v, const VS& s) {
    if (algo.IsUser(v)) {
      a.se += static_cast<double>(s.atb[0]);
      a.n += s.ratings;
    }
    return a;
  });
  result.ratings = acc.n;
  result.rmse = acc.n > 0 ? std::sqrt(acc.se / static_cast<double>(acc.n)) : 0.0;
  result.stats = engine.stats();
  return result;
}

}  // namespace xstream

#endif  // XSTREAM_ALGORITHMS_ALS_H_
