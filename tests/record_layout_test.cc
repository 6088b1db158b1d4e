// Record-layout regression guards.
//
// Edge, Update and VertexState types are streamed to storage and moved by
// byte-level shuffles: their size and triviality are an on-disk ABI. A
// layout change silently invalidates existing partitioned stores and
// checkpoints, so every streamed record is pinned here.
#include <gtest/gtest.h>

#include <type_traits>

#include "algorithms/algorithms.h"
#include "algorithms/kcores.h"
#include "baselines/graphchi_like.h"
#include "baselines/psw_programs.h"
#include "graph/types.h"

namespace xstream {
namespace {

template <typename T>
constexpr bool Streamable() {
  return std::is_trivially_copyable_v<T> && std::is_default_constructible_v<T>;
}

TEST(RecordLayoutTest, EdgeIsTwelvePackedBytes) {
  EXPECT_EQ(sizeof(Edge), 12u);
  EXPECT_TRUE(Streamable<Edge>());
}

TEST(RecordLayoutTest, EdgePairIsEightPackedBytes) {
  EXPECT_EQ(sizeof(EdgePair), 8u);
  EXPECT_EQ(alignof(EdgePair), 1u);  // packed, like Edge
  EXPECT_TRUE(Streamable<EdgePair>());
  EdgePair pair(Edge{3, 5, 0.75f});
  Edge widened = ToEdge(pair);
  EXPECT_EQ(widened.src, 3u);
  EXPECT_EQ(widened.dst, 5u);
  EXPECT_EQ(widened.weight, 0.0f);
}

TEST(RecordLayoutTest, StoredEdgeFollowsTheWeightTrait) {
  static_assert(std::is_same_v<StoredEdge<WccAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<BfsAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<PageRankAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<BpAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<ConductanceAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<HyperAnfAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<KCoreAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<MisAlgorithm>, EdgePair>);
  static_assert(std::is_same_v<StoredEdge<SsspAlgorithm>, Edge>);
  static_assert(std::is_same_v<StoredEdge<SpmvAlgorithm>, Edge>);
  static_assert(std::is_same_v<StoredEdge<SccAlgorithm>, Edge>);
  static_assert(std::is_same_v<StoredEdge<McstAlgorithm>, Edge>);
  static_assert(std::is_same_v<StoredEdge<AlsAlgorithm>, Edge>);
}

TEST(RecordLayoutTest, UpdateSizes) {
  EXPECT_EQ(sizeof(WccAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(BfsAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(SsspAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(PageRankAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(SpmvAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(ConductanceAlgorithm::Update), 5u);
  EXPECT_EQ(sizeof(MisAlgorithm::Update), 13u);
  EXPECT_EQ(sizeof(SccAlgorithm::Update), 8u);
  EXPECT_EQ(sizeof(McstAlgorithm::Update), 16u);
  EXPECT_EQ(sizeof(KCoreAlgorithm::Update), 5u);
  EXPECT_EQ(sizeof(BpAlgorithm::Update), 12u);
  // ALS: dst + rating + kFactors floats.
  EXPECT_EQ(sizeof(AlsAlgorithm::Update), 8u + AlsAlgorithm::kFactors * 4u);
  // HyperANF: dst + registers.
  EXPECT_EQ(sizeof(HyperAnfAlgorithm::Update), 4u + HyperAnfAlgorithm::kRegisters);
}

TEST(RecordLayoutTest, UpdatesAreStreamable) {
  EXPECT_TRUE(Streamable<WccAlgorithm::Update>());
  EXPECT_TRUE(Streamable<BfsAlgorithm::Update>());
  EXPECT_TRUE(Streamable<SsspAlgorithm::Update>());
  EXPECT_TRUE(Streamable<PageRankAlgorithm::Update>());
  EXPECT_TRUE(Streamable<SpmvAlgorithm::Update>());
  EXPECT_TRUE(Streamable<ConductanceAlgorithm::Update>());
  EXPECT_TRUE(Streamable<MisAlgorithm::Update>());
  EXPECT_TRUE(Streamable<SccAlgorithm::Update>());
  EXPECT_TRUE(Streamable<McstAlgorithm::Update>());
  EXPECT_TRUE(Streamable<AlsAlgorithm::Update>());
  EXPECT_TRUE(Streamable<BpAlgorithm::Update>());
  EXPECT_TRUE(Streamable<HyperAnfAlgorithm::Update>());
  EXPECT_TRUE(Streamable<KCoreAlgorithm::Update>());
}

TEST(RecordLayoutTest, VertexStatesAreStreamable) {
  // States are bulk load/stored by the out-of-core engine and checkpoints.
  EXPECT_TRUE(Streamable<WccAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<BfsAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<SsspAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<PageRankAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<SpmvAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<ConductanceAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<MisAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<SccAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<McstAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<AlsAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<BpAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<HyperAnfAlgorithm::VertexState>());
  EXPECT_TRUE(Streamable<KCoreAlgorithm::VertexState>());
}

TEST(RecordLayoutTest, AlsStateMatchesPaperFootprint) {
  // The paper: "almost 250 bytes in the case of ALS".
  EXPECT_GE(sizeof(AlsAlgorithm::VertexState), 200u);
  EXPECT_LE(sizeof(AlsAlgorithm::VertexState), 256u);
}

TEST(RecordLayoutTest, MisStateTracksPaperMinimum) {
  // The paper notes MIS needs only "a single byte ... a boolean variable"
  // of algorithmic state; our state adds the priority and protocol flags.
  EXPECT_LE(sizeof(MisAlgorithm::VertexState), 16u);
}

TEST(RecordLayoutTest, PswDiskEdgeComposition) {
  // PSW records: src + dst + weight + edge value.
  EXPECT_EQ(sizeof(PswEngine<PswWcc>::DiskEdge), 12u + sizeof(uint32_t));
  EXPECT_EQ(sizeof(PswEngine<PswPageRank>::DiskEdge), 12u + sizeof(float));
  EXPECT_EQ(sizeof(PswEngine<PswAls>::DiskEdge), 12u + PswAls::kFactors * 4u);
  EXPECT_EQ(sizeof(PswEngine<PswBp>::DiskEdge), 12u + 8u);
}

TEST(RecordLayoutTest, EveryUpdateLeadsWithDst) {
  // The shuffler routes by u.dst; it must be the leading field so partial
  // reads of a record prefix can route without full deserialization.
  WccAlgorithm::Update w{};
  EXPECT_EQ(reinterpret_cast<char*>(&w.dst), reinterpret_cast<char*>(&w));
  McstAlgorithm::Update m{};
  EXPECT_EQ(reinterpret_cast<char*>(&m.dst), reinterpret_cast<char*>(&m));
  AlsAlgorithm::Update a{};
  EXPECT_EQ(reinterpret_cast<char*>(&a.dst), reinterpret_cast<char*>(&a));
}

}  // namespace
}  // namespace xstream
