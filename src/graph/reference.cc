#include "graph/reference.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace xstream {

ReferenceGraph::ReferenceGraph(const EdgeList& edges, uint64_t num_vertices)
    : adj_(num_vertices) {
  for (const Edge& e : edges) {
    XS_CHECK_LT(e.src, num_vertices);
    XS_CHECK_LT(e.dst, num_vertices);
    adj_[e.src].emplace_back(e.dst, e.weight);
  }
}

std::vector<uint32_t> ReferenceBfsLevels(const ReferenceGraph& g, VertexId root) {
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  std::deque<VertexId> queue;
  level[root] = 0;
  queue.push_back(root);
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    for (const auto& [u, w] : g.OutEdges(v)) {
      if (level[u] == UINT32_MAX) {
        level[u] = level[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return level;
}

namespace {

// Union-find with path halving.
class UnionFind {
 public:
  explicit UnionFind(uint64_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return false;
    }
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

std::vector<VertexId> ReferenceWcc(const EdgeList& edges, uint64_t num_vertices) {
  UnionFind uf(num_vertices);
  for (const Edge& e : edges) {
    uf.Union(e.src, e.dst);
  }
  std::vector<VertexId> label(num_vertices);
  // Union-by-min makes the root the minimum id of its component.
  for (uint64_t v = 0; v < num_vertices; ++v) {
    label[v] = uf.Find(static_cast<uint32_t>(v));
  }
  return label;
}

std::vector<double> ReferenceSssp(const ReferenceGraph& g, VertexId root) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_vertices(), kInf);
  dist[root] = 0.0;
  // Bellman-Ford with a worklist; weights are non-negative so it terminates.
  std::deque<VertexId> queue{root};
  std::vector<uint8_t> queued(g.num_vertices(), 0);
  queued[root] = 1;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    queued[v] = 0;
    for (const auto& [u, w] : g.OutEdges(v)) {
      double candidate = dist[v] + static_cast<double>(w);
      if (candidate < dist[u]) {
        dist[u] = candidate;
        if (!queued[u]) {
          queued[u] = 1;
          queue.push_back(u);
        }
      }
    }
  }
  return dist;
}

std::vector<double> ReferencePageRank(const ReferenceGraph& g, int iterations) {
  uint64_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  std::vector<uint64_t> out_degree(n, 0);
  for (uint64_t v = 0; v < n; ++v) {
    out_degree[v] = g.OutEdges(v).size();
  }
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (uint64_t v = 0; v < n; ++v) {
      if (out_degree[v] == 0) {
        continue;
      }
      double share = rank[v] / static_cast<double>(out_degree[v]);
      for (const auto& [u, w] : g.OutEdges(v)) {
        next[u] += share;
      }
    }
    for (uint64_t v = 0; v < n; ++v) {
      next[v] = (1.0 - 0.85) / static_cast<double>(n) + 0.85 * next[v];
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<double> ReferenceSpmv(const ReferenceGraph& g, const std::vector<double>& x) {
  std::vector<double> y(g.num_vertices(), 0.0);
  for (uint64_t v = 0; v < g.num_vertices(); ++v) {
    for (const auto& [u, w] : g.OutEdges(v)) {
      y[u] += static_cast<double>(w) * x[v];
    }
  }
  return y;
}

double ReferenceMstWeight(const EdgeList& edges, uint64_t num_vertices) {
  // Kruskal over the undirected edges (keep src < dst representatives).
  std::vector<Edge> undirected;
  undirected.reserve(edges.size() / 2);
  for (const Edge& e : edges) {
    if (e.src < e.dst) {
      undirected.push_back(e);
    }
  }
  std::sort(undirected.begin(), undirected.end(), [](const Edge& a, const Edge& b) {
    if (a.weight != b.weight) {
      return a.weight < b.weight;
    }
    // Deterministic tie-break on endpoints so the MST is unique.
    if (a.src != b.src) {
      return a.src < b.src;
    }
    return a.dst < b.dst;
  });
  UnionFind uf(num_vertices);
  double total = 0.0;
  for (const Edge& e : undirected) {
    if (uf.Union(e.src, e.dst)) {
      total += static_cast<double>(e.weight);
    }
  }
  return total;
}

std::vector<uint32_t> ReferenceScc(const ReferenceGraph& g) {
  // Iterative Tarjan.
  uint64_t n = g.num_vertices();
  constexpr uint32_t kUnset = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnset);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<uint32_t> scc(n, kUnset);
  std::vector<VertexId> stack;
  uint32_t next_index = 0;
  uint32_t next_scc = 0;

  struct Frame {
    VertexId v;
    size_t edge = 0;
  };
  std::vector<Frame> call;

  for (uint64_t start = 0; start < n; ++start) {
    if (index[start] != kUnset) {
      continue;
    }
    call.push_back({static_cast<VertexId>(start)});
    while (!call.empty()) {
      Frame& frame = call.back();
      VertexId v = frame.v;
      if (frame.edge == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      bool descended = false;
      const auto& out = g.OutEdges(v);
      while (frame.edge < out.size()) {
        VertexId u = out[frame.edge].first;
        ++frame.edge;
        if (index[u] == kUnset) {
          call.push_back({u});
          descended = true;
          break;
        }
        if (on_stack[u]) {
          lowlink[v] = std::min(lowlink[v], index[u]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink[v] == index[v]) {
        for (;;) {
          VertexId u = stack.back();
          stack.pop_back();
          on_stack[u] = 0;
          scc[u] = next_scc;
          if (u == v) {
            break;
          }
        }
        ++next_scc;
      }
      call.pop_back();
      if (!call.empty()) {
        lowlink[call.back().v] = std::min(lowlink[call.back().v], lowlink[v]);
      }
    }
  }
  return scc;
}

bool IsMaximalIndependentSet(const EdgeList& edges, uint64_t num_vertices,
                             const std::vector<uint8_t>& in_set) {
  // Independence: no edge inside the set.
  for (const Edge& e : edges) {
    if (e.src != e.dst && in_set[e.src] && in_set[e.dst]) {
      return false;
    }
  }
  // Maximality: every vertex outside the set has a neighbor inside it.
  std::vector<uint8_t> has_in_neighbor(num_vertices, 0);
  for (const Edge& e : edges) {
    if (in_set[e.src]) {
      has_in_neighbor[e.dst] = 1;
    }
    if (in_set[e.dst]) {
      has_in_neighbor[e.src] = 1;
    }
  }
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (!in_set[v] && !has_in_neighbor[v]) {
      return false;
    }
  }
  return true;
}

double ReferenceConductance(const EdgeList& edges, uint64_t /*num_vertices*/,
                            const std::vector<uint8_t>& side) {
  uint64_t cross = 0;
  uint64_t vol_s = 0;
  uint64_t vol_rest = 0;
  for (const Edge& e : edges) {
    if (side[e.src]) {
      ++vol_s;
    } else {
      ++vol_rest;
    }
    if (side[e.src] != side[e.dst]) {
      ++cross;
    }
  }
  uint64_t denom = std::min(vol_s, vol_rest);
  if (denom == 0) {
    return 0.0;
  }
  return static_cast<double>(cross) / static_cast<double>(denom);
}

std::vector<uint8_t> ReferenceKCore(const EdgeList& edges, uint64_t num_vertices, uint32_t k) {
  std::vector<std::vector<VertexId>> adj(num_vertices);
  std::vector<uint32_t> degree(num_vertices, 0);
  for (const Edge& e : edges) {
    adj[e.src].push_back(e.dst);
    ++degree[e.dst];
  }
  std::vector<uint8_t> in_core(num_vertices, 1);
  std::deque<VertexId> peel;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (degree[v] < k) {
      in_core[v] = 0;
      peel.push_back(static_cast<VertexId>(v));
    }
  }
  while (!peel.empty()) {
    VertexId v = peel.front();
    peel.pop_front();
    for (VertexId u : adj[v]) {
      if (in_core[u] && degree[u] > 0 && --degree[u] < k) {
        in_core[u] = 0;
        peel.push_back(u);
      }
    }
  }
  return in_core;
}

uint32_t ReferenceDiameterSteps(const EdgeList& edges, uint64_t num_vertices) {
  // Treat the graph as undirected and run BFS from every vertex; the
  // neighborhood function converges at the graph's diameter. Only suitable
  // for the small graphs used in tests.
  std::vector<std::vector<VertexId>> adj(num_vertices);
  for (const Edge& e : edges) {
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  uint32_t diameter = 0;
  std::vector<uint32_t> level(num_vertices);
  for (uint64_t start = 0; start < num_vertices; ++start) {
    std::fill(level.begin(), level.end(), UINT32_MAX);
    std::deque<VertexId> queue{static_cast<VertexId>(start)};
    level[start] = 0;
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop_front();
      diameter = std::max(diameter, level[v]);
      for (VertexId u : adj[v]) {
        if (level[u] == UINT32_MAX) {
          level[u] = level[v] + 1;
          queue.push_back(u);
        }
      }
    }
  }
  return diameter;
}

}  // namespace xstream
