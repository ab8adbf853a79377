#include "support/reference_olsr_routes.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace mk::test {

std::vector<ReferenceRoute> reference_olsr_routes(
    net::Addr self, const proto::INeighborState& nbr,
    const proto::OlsrState& st, const NodeCost& node_cost) {
  std::vector<std::pair<net::Addr, net::Addr>> scratch_edges;
  for (net::Addr n : nbr.sym_neighbors()) {
    scratch_edges.emplace_back(self, n);
    for (net::Addr t : nbr.two_hop_via(n)) {
      if (t != self) scratch_edges.emplace_back(n, t);
    }
  }
  st.append_topology_edges(scratch_edges);

  std::vector<net::Addr> scratch_nodes;
  scratch_nodes.push_back(self);
  for (const auto& [a, b] : scratch_edges) {
    scratch_nodes.push_back(a);
    scratch_nodes.push_back(b);
  }
  std::sort(scratch_nodes.begin(), scratch_nodes.end());
  scratch_nodes.erase(std::unique(scratch_nodes.begin(), scratch_nodes.end()),
                      scratch_nodes.end());
  const auto n = static_cast<std::uint32_t>(scratch_nodes.size());
  auto idx_of = [&scratch_nodes](net::Addr a) {
    return static_cast<std::uint32_t>(
        std::lower_bound(scratch_nodes.begin(), scratch_nodes.end(), a) -
        scratch_nodes.begin());
  };

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_idx;
  for (const auto& [a, b] : scratch_edges) {
    edge_idx.emplace_back(idx_of(a), idx_of(b));
  }
  std::sort(edge_idx.begin(), edge_idx.end());
  edge_idx.erase(std::unique(edge_idx.begin(), edge_idx.end()),
                 edge_idx.end());
  std::vector<std::uint32_t> adj_start(n + 1, 0);
  for (const auto& [u, v] : edge_idx) adj_start[u + 1]++;
  for (std::uint32_t i = 1; i <= n; ++i) adj_start[i] += adj_start[i - 1];

  // Dijkstra from self; edge weight = node_cost(entered node).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kNoParent = 0xFFFF'FFFFu;
  std::vector<double> dist(n, kInf);
  std::vector<std::uint32_t> parent(n, kNoParent);
  std::vector<std::uint32_t> hops(n, 0);
  std::vector<std::pair<double, std::uint32_t>> heap;
  const std::uint32_t self_idx = idx_of(self);
  dist[self_idx] = 0.0;
  heap.emplace_back(0.0, self_idx);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;
    for (std::uint32_t e = adj_start[u]; e < adj_start[u + 1]; ++e) {
      std::uint32_t v = edge_idx[e].second;
      double w = node_cost(scratch_nodes[v]);
      double nd = d + w;
      if (nd < dist[v] - 1e-12) {
        dist[v] = nd;
        parent[v] = u;
        hops[v] = hops[u] + 1;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }

  // Resolve next hops by walking each parent chain back to self.
  std::vector<ReferenceRoute> routes;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == self_idx || parent[i] == kNoParent) continue;
    std::uint32_t hop = i;
    while (parent[hop] != kNoParent && parent[hop] != self_idx) {
      hop = parent[hop];
    }
    if (parent[hop] == kNoParent) continue;  // unreachable glitch
    routes.push_back({scratch_nodes[i], scratch_nodes[hop], hops[i]});
  }
  return routes;
}

}  // namespace mk::test
