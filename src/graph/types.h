// Core graph record types.
//
// X-Stream's input is "an unordered set of directed edges" (§2); undirected
// graphs are represented as a pair of directed edges. Edges and updates are
// fixed-size trivially-copyable records because they are moved with byte
// copies by the shuffler and streamed through storage devices verbatim.
#ifndef XSTREAM_GRAPH_TYPES_H_
#define XSTREAM_GRAPH_TYPES_H_

#include <cstdint>
#include <type_traits>
#include <vector>

namespace xstream {

using VertexId = uint32_t;
inline constexpr VertexId kNoVertex = UINT32_MAX;

#pragma pack(push, 1)
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  // The paper adds "a pseudo-random floating point number in the range
  // [0 1)" to inputs without weights. Algorithms that need a direction flag
  // (SCC) or a rating (ALS) reuse this field.
  float weight = 0.0f;
};
// The record a partitioned edge stream stores when none of its readers
// reads `weight`: a third fewer bytes to stream per edge. Readers that hand
// edges to an algorithm widen it back to an Edge with weight 0.
struct EdgePair {
  VertexId src = 0;
  VertexId dst = 0;

  EdgePair() = default;
  constexpr explicit EdgePair(const Edge& e) : src(e.src), dst(e.dst) {}
};
#pragma pack(pop)

static_assert(std::is_trivially_copyable_v<Edge>);
static_assert(sizeof(Edge) == 12, "edge records are streamed raw; keep them packed");
static_assert(std::is_trivially_copyable_v<EdgePair>);
static_assert(sizeof(EdgePair) == 8, "edge records are streamed raw; keep them packed");

// The Edge an algorithm's Scatter sees for a stored record.
inline const Edge& ToEdge(const Edge& e) { return e; }
inline Edge ToEdge(const EdgePair& e) { return Edge{e.src, e.dst, 0.0f}; }

using EdgeList = std::vector<Edge>;

// Summary of an edge list: enough to configure an engine.
struct GraphInfo {
  uint64_t num_vertices = 0;  // max vertex id + 1
  uint64_t num_edges = 0;     // directed edge records
};

inline GraphInfo ScanEdges(const EdgeList& edges) {
  GraphInfo info;
  info.num_edges = edges.size();
  for (const Edge& e : edges) {
    if (e.src >= info.num_vertices) {
      info.num_vertices = e.src + 1;
    }
    if (e.dst >= info.num_vertices) {
      info.num_vertices = e.dst + 1;
    }
  }
  return info;
}

}  // namespace xstream

#endif  // XSTREAM_GRAPH_TYPES_H_
