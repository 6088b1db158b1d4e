// Semi-streaming model support (paper §2.5).
//
// "X-Stream also supports interfaces other than edge-centric scatter-gather.
// For example, X-Stream supports the semi-streaming model for graphs [26]."
//
// In the semi-streaming model (Feigenbaum et al.) an algorithm may hold
// O(V·polylog V) state in memory while the edges arrive as a read-only
// stream, possibly over several passes. The engine below drives such
// algorithms over the same storage substrate as the scatter-gather engines:
// edges stream from a device file (or an in-memory list) in I/O-unit-sized
// chunks; the algorithm sees one edge at a time plus pass boundaries.
//
// An algorithm provides:
//   * Init(num_vertices)
//   * BeginPass(pass)
//   * Edge(const Edge&)          — called for every streamed edge
//   * EndPass(pass) -> bool      — true when no further pass is needed
#ifndef XSTREAM_CORE_SEMI_STREAMING_H_
#define XSTREAM_CORE_SEMI_STREAMING_H_

#include <concepts>
#include <cstring>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/stats.h"
#include "graph/types.h"
#include "partitioning/partitioner.h"
#include "storage/device.h"
#include "storage/stream_io.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

template <typename A>
concept SemiStreamingAlgorithm = requires(A a, const Edge& e, uint64_t n, uint32_t pass) {
  { a.Init(n) } -> std::same_as<void>;
  { a.BeginPass(pass) } -> std::same_as<void>;
  { a.Edge(e) } -> std::same_as<void>;
  { a.EndPass(pass) } -> std::convertible_to<bool>;
};

struct SemiStreamStats {
  uint32_t passes = 0;
  uint64_t edges_streamed = 0;
  double seconds = 0.0;
  double sim_io_seconds = 0.0;
};

// Streams an on-device edge file through the algorithm until EndPass returns
// true (or max_passes). One sequential read of the file per pass — the
// semi-streaming contract.
template <SemiStreamingAlgorithm A>
SemiStreamStats RunSemiStreaming(A& algo, StorageDevice& dev, const std::string& edge_file,
                                 uint64_t num_vertices, uint32_t max_passes = 64,
                                 size_t io_unit_bytes = 1 << 20) {
  SemiStreamStats stats;
  WallTimer timer;
  double busy0 = dev.stats().busy_seconds;
  algo.Init(num_vertices);
  FileId f = dev.Open(edge_file);
  size_t chunk = std::max<size_t>(sizeof(Edge), io_unit_bytes / sizeof(Edge) * sizeof(Edge));
  for (uint32_t pass = 0; pass < max_passes; ++pass) {
    algo.BeginPass(pass);
    StreamReader reader(dev, f, chunk);
    for (auto bytes = reader.Next(); !bytes.empty(); bytes = reader.Next()) {
      XS_CHECK_EQ(bytes.size() % sizeof(Edge), 0u);
      const Edge* edges = reinterpret_cast<const Edge*>(bytes.data());
      uint64_t n = bytes.size() / sizeof(Edge);
      for (uint64_t i = 0; i < n; ++i) {
        algo.Edge(edges[i]);
      }
      stats.edges_streamed += n;
    }
    ++stats.passes;
    if (algo.EndPass(pass)) {
      break;
    }
  }
  stats.seconds = timer.Seconds();
  stats.sim_io_seconds = dev.stats().busy_seconds - busy0;
  return stats;
}

// Streams a *partitioned* edge store — per-partition files of 12-byte Edge
// records, one per partition of any PartitionLayout — through the
// algorithm, partition by partition within each pass. (The device engine's
// files hold 8-byte EdgePairs for algorithms that never read weights; they
// are not in this format.) Semi-streaming algorithms are
// edge-order oblivious, so the partitioned order is just another stream; but
// running over the partitioned store lets them share storage with a
// scatter-gather engine (no separate flat copy of the graph), and
// partition-aware algorithms (PartitionQualityPass in src/partitioning/)
// see edges grouped exactly as the engine stores them.
template <SemiStreamingAlgorithm A>
SemiStreamStats RunSemiStreamingPartitioned(A& algo, StorageDevice& dev,
                                            const PartitionLayout& layout,
                                            const std::vector<std::string>& edge_files,
                                            uint32_t max_passes = 64,
                                            size_t io_unit_bytes = 1 << 20) {
  XS_CHECK_EQ(edge_files.size(), size_t{layout.num_partitions()});
  SemiStreamStats stats;
  WallTimer timer;
  double busy0 = dev.stats().busy_seconds;
  algo.Init(layout.num_vertices());
  for (uint32_t pass = 0; pass < max_passes; ++pass) {
    algo.BeginPass(pass);
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      MakeEdgeStream(dev, edge_files[p], io_unit_bytes)([&](const Edge& e) {
        algo.Edge(e);
        ++stats.edges_streamed;
      });
    }
    ++stats.passes;
    if (algo.EndPass(pass)) {
      break;
    }
  }
  stats.seconds = timer.Seconds();
  stats.sim_io_seconds = dev.stats().busy_seconds - busy0;
  return stats;
}

// In-memory convenience overload (single "device-less" stream).
template <SemiStreamingAlgorithm A>
SemiStreamStats RunSemiStreaming(A& algo, const EdgeList& edges, uint64_t num_vertices,
                                 uint32_t max_passes = 64) {
  SemiStreamStats stats;
  WallTimer timer;
  algo.Init(num_vertices);
  for (uint32_t pass = 0; pass < max_passes; ++pass) {
    algo.BeginPass(pass);
    for (const Edge& e : edges) {
      algo.Edge(e);
    }
    stats.edges_streamed += edges.size();
    ++stats.passes;
    if (algo.EndPass(pass)) {
      break;
    }
  }
  stats.seconds = timer.Seconds();
  return stats;
}

// ------------------------------------------------------------------------
// Classic semi-streaming algorithms.

// Connectivity in one pass with O(V) union-find state.
class SemiStreamingConnectivity {
 public:
  void Init(uint64_t num_vertices) {
    parent_.resize(num_vertices);
    for (uint64_t v = 0; v < num_vertices; ++v) {
      parent_[v] = static_cast<VertexId>(v);
    }
  }

  void BeginPass(uint32_t) {}

  void Edge(const Edge& e) { Union(e.src, e.dst); }

  bool EndPass(uint32_t) { return true; }  // single pass suffices

  // Component label = minimum vertex id (after path compression).
  VertexId Component(VertexId v) { return Find(v); }

  uint64_t CountComponents() {
    uint64_t count = 0;
    for (VertexId v = 0; v < parent_.size(); ++v) {
      count += (Find(v) == v) ? 1 : 0;
    }
    return count;
  }

 private:
  VertexId Find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(VertexId a, VertexId b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return;
    }
    if (a < b) {
      parent_[b] = a;  // min-id roots, matching ReferenceWcc labels
    } else {
      parent_[a] = b;
    }
  }

  std::vector<VertexId> parent_;
};

// Greedy maximal matching in one pass: a 1/2-approximation of maximum
// matching with O(V) state — the canonical semi-streaming result.
class SemiStreamingMatching {
 public:
  void Init(uint64_t num_vertices) {
    matched_.assign(num_vertices, kNoVertex);
    size_ = 0;
  }

  void BeginPass(uint32_t) {}

  void Edge(const Edge& e) {
    if (e.src != e.dst && matched_[e.src] == kNoVertex && matched_[e.dst] == kNoVertex) {
      matched_[e.src] = e.dst;
      matched_[e.dst] = e.src;
      ++size_;
    }
  }

  bool EndPass(uint32_t) { return true; }

  uint64_t size() const { return size_; }
  const std::vector<VertexId>& matching() const { return matched_; }

  // Validity: symmetric partner pointers, no vertex matched twice.
  bool Valid() const {
    for (VertexId v = 0; v < matched_.size(); ++v) {
      if (matched_[v] != kNoVertex && matched_[matched_[v]] != v) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<VertexId> matched_;
  uint64_t size_ = 0;
};

// Bipartiteness test in one pass: union-find over 2V "sided" nodes.
class SemiStreamingBipartiteness {
 public:
  void Init(uint64_t num_vertices) {
    n_ = num_vertices;
    parent_.resize(2 * num_vertices);
    for (uint64_t v = 0; v < parent_.size(); ++v) {
      parent_[v] = static_cast<VertexId>(v);
    }
    bipartite_ = true;
  }

  void BeginPass(uint32_t) {}

  void Edge(const Edge& e) {
    if (e.src == e.dst) {
      bipartite_ = false;  // self loop = odd cycle
      return;
    }
    // src-same-side with dst-other-side and vice versa.
    Union(e.src, static_cast<VertexId>(e.dst + n_));
    Union(static_cast<VertexId>(e.src + n_), e.dst);
    if (Find(e.src) == Find(static_cast<VertexId>(e.src + n_))) {
      bipartite_ = false;  // odd cycle closed
    }
  }

  bool EndPass(uint32_t) { return true; }

  bool bipartite() const { return bipartite_; }

 private:
  VertexId Find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(VertexId a, VertexId b) {
    a = Find(a);
    b = Find(b);
    if (a != b) {
      parent_[std::max(a, b)] = std::min(a, b);
    }
  }

  uint64_t n_ = 0;
  std::vector<VertexId> parent_;
  bool bipartite_ = true;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_SEMI_STREAMING_H_
