// BFS shortest-path measures on the undirected simple view of the WCG.  All
// distances are hop counts, matching how the paper reports diameter and
// closeness on conversation graphs that mix request, response and redirect
// edges.  path_metrics() walks each source's shortest-path DAG once and
// yields every measure built on it (features f12, f17-f19 and f24).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace dm::graph {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Adjacency type produced by Digraph::undirected_adjacency /
/// directed_adjacency.
using Adjacency = std::vector<std::vector<NodeId>>;

/// Single-source BFS hop distances; kUnreachable for nodes not reached.
std::vector<std::uint32_t> bfs_distances(const Adjacency& adj, NodeId source);

/// Connected components of the undirected view; returns component id per
/// node and the number of components.
struct Components {
  std::vector<std::uint32_t> component_of;
  std::uint32_t count = 0;
};
Components connected_components(const Adjacency& adj);

/// Per-node measures of the shortest-path DAG from every source.
struct PathMetrics {
  /// Largest finite distance from each node; 0 for an isolated node.
  std::vector<std::uint32_t> eccentricity;
  /// Max eccentricity, ignoring unreachable pairs (the WCG may briefly be
  /// disconnected while a conversation grows).
  std::uint32_t diameter = 0;
  /// Closeness with the Wasserman-Faust improvement for disconnected
  /// graphs (matches networkx's default, which the paper's tooling used):
  ///   C(v) = (r - 1) / sum_dists * (r - 1) / (n - 1)
  /// where r is the number of nodes reachable from v.
  std::vector<double> closeness;
  /// Betweenness (Brandes), normalized by 2/((n-1)(n-2)) for the undirected
  /// view; 0 for graphs with < 3 nodes.
  std::vector<double> betweenness;
  /// Load: like betweenness, but flow from each source splits equally among
  /// predecessors at every node rather than proportionally to path counts.
  /// Same normalization as betweenness.
  std::vector<double> load;
  /// Nodes u with 1 <= dist(v, u) <= k.
  std::vector<std::uint32_t> reach;
};

/// One BFS per source over a symmetric adjacency (an undirected view); the
/// next source reuses the buffers of a source's DAG.
PathMetrics path_metrics(const Adjacency& adj, std::uint32_t k = 2);

}  // namespace dm::graph
