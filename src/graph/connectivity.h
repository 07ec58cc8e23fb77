// Connectivity / neighborhood metrics: local & average node connectivity
// (max-flow on vertex-split unit-capacity graphs), clustering coefficient,
// average neighbor degree, degree connectivity and reciprocity.  These back
// features f15, f20-f23 and the §II-C study (Figure 7).
#pragma once

#include <cstdint>
#include <map>

#include "graph/shortest_paths.h"
#include "util/rng.h"

namespace dm::graph {

/// Local node connectivity between s and t on the undirected view (a sorted,
/// symmetric adjacency): the minimum number of nodes whose removal
/// disconnects t from s (Menger), computed as max-flow with unit node
/// capacities (vertex splitting, BFS augmenting paths).  If s and t are
/// adjacent the edge bypasses node limits, following the standard convention
/// of contracting it out: the edge counts 1, plus the flow without it.
std::uint32_t local_node_connectivity(const Adjacency& adj, NodeId s, NodeId t);

/// Average node connectivity over node pairs, on one flow network built for
/// the graph and reset per pair.  Exact when the number of pairs is <=
/// max_pairs; otherwise averages over `max_pairs` pairs sampled uniformly
/// with the provided RNG (WCGs can reach 404 nodes — 81k pairs — where
/// exact all-pairs flow would dominate feature-extraction time).
double average_node_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                 std::size_t max_pairs = 2000);

/// Per-node clustering coefficient on the undirected simple view.
std::vector<double> clustering_coefficients(const Adjacency& adj);

/// Average clustering coefficient; 0 for empty graphs.
double average_clustering(const Adjacency& adj);

/// Average degree of each node's neighbors (nodes with no neighbors -> 0).
std::vector<double> average_neighbor_degrees(const Adjacency& adj);

/// networkx-style average degree connectivity: for each degree k present in
/// the graph, the mean average-neighbor-degree of nodes with degree k.
std::map<std::size_t, double> average_degree_connectivity(const Adjacency& adj);

/// Reciprocity of a directed simple adjacency (Digraph::directed_adjacency):
/// fraction of edges whose reverse also exists (feature f15).  0 for
/// edgeless graphs.
double reciprocity(const Adjacency& directed_adj);

}  // namespace dm::graph
