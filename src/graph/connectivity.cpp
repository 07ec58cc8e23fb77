#include "graph/connectivity.h"

#include <algorithm>

namespace dm::graph {
namespace {

/// Unit-capacity flow network for vertex connectivity, built once per graph
/// and reset for each node pair.  Each original node v becomes v_in (2v)
/// and v_out (2v+1) joined by a capacity-1 split arc; each undirected edge
/// {u, v} becomes u_out->v_in and v_out->u_in with large capacity (edges are
/// never the bottleneck for NODE connectivity).  Arcs are stored per vertex:
/// the split arc (or its reverse) first, then one arc per neighbour in
/// adjacency order, so the arc v_out->w_in sits at first(v_out) + 1 + the
/// rank of w in adj[v].
class UnitFlowNetwork {
 public:
  explicit UnitFlowNetwork(const Adjacency& adj) : adj_(adj) {
    const std::size_t vertices = 2 * adj.size();
    first_.assign(vertices + 1, 0);
    for (NodeId v = 0; v < adj.size(); ++v) {
      // The split arc's two ends, then each edge arc's two ends.
      ++first_[node_in(v) + 1];
      first_[node_out(v) + 1] += 1 + static_cast<std::uint32_t>(adj[v].size());
      for (NodeId w : adj[v]) ++first_[node_in(w) + 1];
    }
    for (std::size_t x = 0; x < vertices; ++x) first_[x + 1] += first_[x];
    arcs_.resize(first_.back());
    base_cap_.assign(first_.back(), 0);
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    for (NodeId v = 0; v < adj.size(); ++v) add_arc(next, node_in(v), node_out(v), 1);
    for (NodeId v = 0; v < adj.size(); ++v) {
      for (NodeId w : adj[v]) add_arc(next, node_out(v), node_in(w), kInf);
    }
    parent_.resize(vertices);
    queue_.reserve(vertices);
  }

  /// local_node_connectivity(adj, s, t) for s != t: Edmonds-Karp max-flow
  /// from s_out to t_in, capped at min-degree augmenting paths.  An adjacent
  /// pair masks its two edge arcs, which removes the edge from the network.
  std::uint32_t connectivity(NodeId s, NodeId t) {
    cap_ = base_cap_;
    // Source and sink are not node-capacity constrained.
    cap_[first_[node_in(s)]] = kInf;
    cap_[first_[node_in(t)]] = kInf;
    auto bound = static_cast<std::uint32_t>(std::min(adj_[s].size(), adj_[t].size()));
    const bool adjacent = std::binary_search(adj_[s].begin(), adj_[s].end(), t);
    if (adjacent) {
      cap_[edge_arc(s, t)] = 0;
      cap_[edge_arc(t, s)] = 0;
      --bound;
    }
    std::uint32_t flow = 0;
    while (flow < bound && augment(node_out(s), node_in(t))) ++flow;
    return adjacent ? 1 + flow : flow;
  }

 private:
  static constexpr int kInf = 1 << 29;
  static constexpr std::uint32_t kUnvisited = ~0u;
  static constexpr std::uint32_t kRoot = ~0u - 1;  // visited, reached by no arc

  struct Arc {
    std::uint32_t to;
    std::uint32_t rev;  // index of the reverse arc
  };

  static std::uint32_t node_in(NodeId v) noexcept { return 2 * v; }
  static std::uint32_t node_out(NodeId v) noexcept { return 2 * v + 1; }

  void add_arc(std::vector<std::uint32_t>& next, std::uint32_t from,
               std::uint32_t to, int cap) {
    const std::uint32_t a = next[from]++;
    const std::uint32_t r = next[to]++;
    arcs_[a] = {to, r};
    arcs_[r] = {from, a};
    base_cap_[a] = cap;
  }

  std::uint32_t edge_arc(NodeId v, NodeId w) const {
    const auto& nbrs = adj_[v];
    const auto rank = std::lower_bound(nbrs.begin(), nbrs.end(), w) - nbrs.begin();
    return first_[node_out(v)] + 1 + static_cast<std::uint32_t>(rank);
  }

  /// One BFS augmenting path; pushes one unit along it (every arc on it has
  /// cap >= 1).
  bool augment(std::uint32_t source, std::uint32_t sink) {
    std::fill(parent_.begin(), parent_.end(), kUnvisited);
    queue_.assign(1, source);
    parent_[source] = kRoot;
    for (std::size_t head = 0; head < queue_.size() && parent_[sink] == kUnvisited;
         ++head) {
      const std::uint32_t v = queue_[head];
      for (std::uint32_t a = first_[v]; a < first_[v + 1]; ++a) {
        const std::uint32_t w = arcs_[a].to;
        if (cap_[a] > 0 && parent_[w] == kUnvisited) {
          parent_[w] = a;
          queue_.push_back(w);
        }
      }
    }
    if (parent_[sink] == kUnvisited) return false;
    for (std::uint32_t v = sink; v != source;) {
      const std::uint32_t a = parent_[v];
      const std::uint32_t r = arcs_[a].rev;
      cap_[a] -= 1;
      cap_[r] += 1;
      v = arcs_[r].to;
    }
    return true;
  }

  const Adjacency& adj_;
  std::vector<std::uint32_t> first_;  // arcs of vertex x: [first_[x], first_[x + 1])
  std::vector<Arc> arcs_;
  std::vector<int> base_cap_;
  std::vector<int> cap_;
  std::vector<std::uint32_t> parent_;  // arc that reached each vertex
  std::vector<std::uint32_t> queue_;
};

}  // namespace

std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t) {
  if (s == t || adj.size() < 2) return 0;
  return UnitFlowNetwork(adj).connectivity(s, t);
}

double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs) {
  const std::size_t n = adj.size();
  if (n < 2) return 0.0;
  UnitFlowNetwork net(adj);
  const std::size_t total_pairs = n * (n - 1) / 2;
  double sum = 0.0;
  std::size_t counted = 0;
  if (total_pairs <= max_pairs) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = s + 1; t < n; ++t) {
        sum += net.connectivity(s, t);
        ++counted;
      }
    }
  } else {
    while (counted < max_pairs) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (s == t) continue;
      sum += net.connectivity(s, t);
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

std::vector<double> clustering_coefficients(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> cc(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& nbrs = adj[v];
    const std::size_t k = nbrs.size();
    if (k < 2) continue;
    std::size_t links = 0;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        if (std::binary_search(adj[nbrs[i]].begin(), adj[nbrs[i]].end(), nbrs[j])) {
          ++links;
        }
      }
    }
    cc[v] = 2.0 * static_cast<double>(links) /
            (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return cc;
}

double average_clustering(const Adjacency& adj) {
  if (adj.empty()) return 0.0;
  const auto cc = clustering_coefficients(adj);
  double sum = 0.0;
  for (double x : cc) sum += x;
  return sum / static_cast<double>(cc.size());
}

std::vector<double> average_neighbor_degrees(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> and_(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (adj[v].empty()) continue;
    double sum = 0.0;
    for (NodeId w : adj[v]) sum += static_cast<double>(adj[w].size());
    and_[v] = sum / static_cast<double>(adj[v].size());
  }
  return and_;
}

std::map<std::size_t, double> average_degree_connectivity(const Adjacency& adj) {
  const auto and_ = average_neighbor_degrees(adj);
  std::map<std::size_t, std::pair<double, std::size_t>> acc;  // degree -> (sum, count)
  for (NodeId v = 0; v < adj.size(); ++v) {
    const std::size_t k = adj[v].size();
    if (k == 0) continue;
    auto& [sum, count] = acc[k];
    sum += and_[v];
    ++count;
  }
  std::map<std::size_t, double> out;
  for (const auto& [k, sc] : acc) out[k] = sc.first / static_cast<double>(sc.second);
  return out;
}

double reciprocity(const Adjacency& adj) {
  std::size_t total = 0;
  std::size_t mutual = 0;
  for (NodeId v = 0; v < adj.size(); ++v) {
    for (NodeId w : adj[v]) {
      ++total;
      if (std::binary_search(adj[w].begin(), adj[w].end(), v)) ++mutual;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(mutual) / static_cast<double>(total);
}

}  // namespace dm::graph
