// Reference OLSR routing-table computation for conformance tests: the
// sort-based RouteCalculator::recompute body before the persistent node
// index, kept as an oracle. Each call sorts the endpoint addresses of the
// whole edge multiset into a dense index, sorts and dedupes the edges into
// a CSR adjacency and runs Dijkstra from `self`, exactly as RFC 3626 §10
// prescribes (edges directed away from the node that vouches for them).
// It writes nothing: the result is the route set a full recompute installs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/address.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "protocols/olsr/olsr_state.hpp"

namespace mk::test {

struct ReferenceRoute {
  net::Addr dest = net::kNoAddr;
  net::Addr next_hop = net::kNoAddr;
  std::uint32_t metric = 0;  // hop count
  bool operator==(const ReferenceRoute&) const = default;
};

/// Cost of traversing intermediate node `via` (1.0 for the min-hop metric).
using NodeCost = std::function<double(net::Addr via)>;

/// Routes from `self`, ascending by destination.
std::vector<ReferenceRoute> reference_olsr_routes(
    net::Addr self, const proto::INeighborState& nbr,
    const proto::OlsrState& st, const NodeCost& node_cost);

}  // namespace mk::test
