#include "graph/shortest_paths.h"

#include <algorithm>
#include <queue>

namespace dm::graph {

std::vector<std::uint32_t> bfs_distances(const Adjacency& adj, NodeId source) {
  std::vector<std::uint32_t> dist(adj.size(), kUnreachable);
  if (source >= adj.size()) return dist;
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId w : adj[v]) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

Components connected_components(const Adjacency& adj) {
  Components result;
  result.component_of.assign(adj.size(), kUnreachable);
  for (NodeId start = 0; start < adj.size(); ++start) {
    if (result.component_of[start] != kUnreachable) continue;
    const std::uint32_t id = result.count++;
    std::queue<NodeId> frontier;
    result.component_of[start] = id;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NodeId w : adj[v]) {
        if (result.component_of[w] == kUnreachable) {
          result.component_of[w] = id;
          frontier.push(w);
        }
      }
    }
  }
  return result;
}

PathMetrics path_metrics(const Adjacency& adj, std::uint32_t k) {
  const std::size_t n = adj.size();
  PathMetrics pm;
  pm.eccentricity.assign(n, 0);
  pm.closeness.assign(n, 0.0);
  pm.betweenness.assign(n, 0.0);
  pm.load.assign(n, 0.0);
  pm.reach.assign(n, 0);
  // Undirected: each unordered pair is counted twice by the source loop.
  const double norm =
      n < 3 ? 0.0 : 1.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2));

  // One source's DAG: hop distances, shortest-path counts, and the BFS order,
  // which is also the queue.  A node's predecessors are its neighbours one
  // hop nearer the source, so no list of them is kept.
  std::vector<std::uint32_t> dist(n);
  std::vector<double> sigma(n);
  std::vector<double> delta(n);
  std::vector<double> load(n);
  std::vector<NodeId> order;
  order.reserve(n);

  for (NodeId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    order.assign(1, s);
    dist[s] = 0;
    sigma[s] = 1.0;
    std::uint64_t dist_sum = 0;  // integral, so exact in any order
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      dist_sum += dist[v];
      if (v != s && dist[v] <= k) ++pm.reach[s];
      for (NodeId w : adj[v]) {
        if (dist[w] == kUnreachable) {
          dist[w] = dist[v] + 1;
          order.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    pm.eccentricity[s] = dist[order.back()];
    if (dist_sum > 0) {
      const double r = static_cast<double>(order.size() - 1);
      pm.closeness[s] =
          r / static_cast<double>(dist_sum) * r / static_cast<double>(n - 1);
    }
    if (norm == 0.0) continue;

    // Brandes dependencies and load, in reverse BFS order.  Each reachable
    // target starts with one unit of load, which splits EQUALLY among its
    // predecessors (this equal split is what distinguishes load from
    // betweenness).
    std::fill(delta.begin(), delta.end(), 0.0);
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t i = 1; i < order.size(); ++i) load[order[i]] = 1.0;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      const NodeId w = order[i];
      std::size_t preds = 0;
      for (NodeId v : adj[w]) preds += dist[v] + 1 == dist[w];
      const double share = load[w] / static_cast<double>(preds);
      for (NodeId v : adj[w]) {
        if (dist[v] + 1 != dist[w]) continue;
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        load[v] += share;
      }
      pm.betweenness[w] += delta[w];
    }
    // Subtract the unit that terminates at v (an unreachable v takes -1).
    for (NodeId v = 0; v < n; ++v) {
      if (v != s) pm.load[v] += load[v] - 1.0;
    }
  }

  for (std::uint32_t e : pm.eccentricity) pm.diameter = std::max(pm.diameter, e);
  if (norm != 0.0) {
    for (double& x : pm.betweenness) x *= norm;
    for (double& x : pm.load) x = std::max(0.0, x) * norm;
  }
  return pm;
}

}  // namespace dm::graph
