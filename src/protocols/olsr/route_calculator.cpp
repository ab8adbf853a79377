#include "protocols/olsr/route_calculator.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "core/framework_manager.hpp"
#include "core/manet_protocol.hpp"
#include "protocols/mpr/mpr_state.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

RouteCalculator::RouteCalculator(core::ManetProtocolCf* mpr_cf)
    : RouteCalculator("olsr.RouteCalculator", mpr_cf) {}

RouteCalculator::RouteCalculator(std::string type_name,
                                 core::ManetProtocolCf* mpr_cf)
    : oc::Component(std::move(type_name)), mpr_cf_(mpr_cf) {
  set_instance_name("RouteCalculator");
  provide("IRouteCalculator", static_cast<IRouteCalculator*>(this));
}

double RouteCalculator::node_cost(const OlsrState&, net::Addr) const {
  return 1.0;
}

namespace {
constexpr std::uint32_t kNone = 0xFFFF'FFFFu;
}  // namespace

std::size_t RouteCalculator::home_slot(net::Addr a) const {
  // Fibonacci hashing: the top bits of a * 2^32/phi spread 10.0.0.x evenly.
  return (static_cast<std::uint32_t>(a) * 0x9E37'79B9u) >> slot_shift_;
}

std::uint32_t RouteCalculator::index_of(net::Addr a) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = home_slot(a);; s = (s + 1) & mask) {
    const std::uint32_t i = slots_[s];
    if (i == kNone || nodes_[i] == a) return i;
  }
}

void RouteCalculator::rebuild_index(net::Addr self) {
  nodes_.clear();
  nodes_.push_back(self);
  for (const auto& [a, b] : scratch_edges_) {
    nodes_.push_back(a);
    nodes_.push_back(b);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());

  std::size_t cap = 16;  // load factor <= 1/2
  while (cap < 2 * nodes_.size()) cap <<= 1;
  slots_.assign(cap, kNone);
  slot_shift_ = 32 - static_cast<unsigned>(std::countr_zero(cap));
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    std::size_t s = home_slot(nodes_[i]);
    while (slots_[s] != kNone) s = (s + 1) & mask;
    slots_[s] = i;
  }
  // The previous output is indexed by the old index: forget the kernel it
  // was written to, so this run installs with a full pass.
  last_inputs_ = {};
  rebuilds_->inc();
}

bool RouteCalculator::map_edges() {
  edge_idx_.clear();
  for (const auto& [a, b] : scratch_edges_) {
    const std::uint32_t u = index_of(a);
    const std::uint32_t v = index_of(b);
    if (u == kNone || v == kNone) return false;
    edge_idx_.emplace_back(u, v);
  }
  return true;
}

void RouteCalculator::recompute(core::ProtocolContext& ctx) {
  auto* st = dynamic_cast<OlsrState*>(ctx.state());
  core::ManetProtocolCf* mpr_cf = mpr_cf_.get();
  if (st == nullptr || ctx.sys() == nullptr || mpr_cf == nullptr) return;

  auto* nbr =
      mpr_cf->state_component() == nullptr
          ? nullptr
          : mpr_cf->state_component()->interface_as<INeighborState>(
                "INeighborState");
  if (nbr == nullptr) return;

  net::KernelRouteTable& kernel = ctx.sys()->kernel_table();
  InputKey key{nbr, nbr->version(), st, st->version(), &kernel,
               kernel.generation()};
  if (runs_ == nullptr) {
    runs_ = &ctx.metrics().counter("olsr.route_recomputes");
    skips_ = &ctx.metrics().counter("olsr.route_recompute_skips");
    rebuilds_ = &ctx.metrics().counter("olsr.route_index_rebuilds");
  }
  if (key == last_inputs_) {
    skips_->inc();
    return;
  }
  runs_->inc();

  net::Addr self = ctx.self();

  // Build the adjacency view: symmetric 1-hop links, 2-hop links learned
  // from HELLOs, and TC-advertised links. Edges are *directed* away from the
  // node that vouches for them (RFC 3626 §10): a destination is reachable
  // only through a chain of still-fresh advertisements starting at our own
  // link set. Treating TC edges as bidirectional — the pre-ISSUE-6 bug —
  // let a partitioned-away origin's stale TC (topology hold 15 s) resurrect
  // the severed link from the *far* side, so mid-partition recomputes never
  // dropped routes and kRouteDel was only ever journaled after the heal.
  scratch_edges_.clear();
  for (net::Addr n : nbr->sym_neighbors()) {
    scratch_edges_.emplace_back(self, n);
    for (net::Addr t : nbr->two_hop_via(n)) {
      if (t != self) scratch_edges_.emplace_back(n, t);
    }
  }
  st->append_topology_edges(scratch_edges_);

  // Endpoints map through the persistent index; an unseen address rebuilds
  // it, compacted to the nodes this run names.
  std::uint32_t src = index_of(self);
  if (src == kNone || !map_edges()) {
    rebuild_index(self);
    map_edges();
    src = index_of(self);
  }
  const auto n = static_cast<std::uint32_t>(nodes_.size());

  // CSR adjacency by counting sort on the source index; each bucket (a
  // handful of edges) is then sorted and deduped in place and compacted.
  adj_start_.assign(n + 1, 0);
  for (const auto& [u, v] : edge_idx_) adj_start_[u + 1]++;
  for (std::uint32_t i = 1; i <= n; ++i) adj_start_[i] += adj_start_[i - 1];
  adj_.resize(edge_idx_.size());
  for (const auto& [u, v] : edge_idx_) adj_[adj_start_[u]++] = v;
  // adj_start_[u] now ends bucket u; rewrite it to the compacted start.
  std::uint32_t begin = 0;
  std::uint32_t out = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t end = adj_start_[u];
    std::sort(adj_.begin() + begin, adj_.begin() + end);
    adj_start_[u] = out;
    for (std::uint32_t e = begin; e < end; ++e) {
      if (e == begin || adj_[e] != adj_[e - 1]) adj_[out++] = adj_[e];
    }
    begin = end;
  }
  adj_start_[n] = out;

  // Dijkstra from self; edge weight = node_cost(entered node). A relaxed
  // node inherits its first hop from the node being popped, whose own is
  // already final.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  cost_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) cost_[i] = node_cost(*st, nodes_[i]);
  dist_.assign(n, kInf);
  first_hop_.assign(n, kNone);
  hops_.assign(n, 0);
  heap_.clear();
  dist_[src] = 0.0;
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    for (std::uint32_t e = adj_start_[u]; e < adj_start_[u + 1]; ++e) {
      const std::uint32_t v = adj_[e];
      const double nd = d + cost_[v];
      if (nd < dist_[v] - 1e-12) {
        dist_[v] = nd;
        first_hop_[v] = u == src ? v : first_hop_[u];
        hops_[v] = hops_[u] + 1;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }

  // Sync the kernel table: the same set_route/remove_route sequence as a
  // full pass, minus the set_route calls that are provably no-ops.
  const bool diff = last_inputs_.kernel == &kernel &&
                    last_inputs_.kernel_generation == kernel.generation();
  fresh_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t hop = first_hop_[i];
    if (hop == kNone) continue;
    fresh_.push_back(nodes_[i]);  // ascending: index order
    if (diff && prev_first_hop_[i] == hop && prev_hops_[i] == hops_[i]) {
      continue;
    }
    net::RouteEntry entry;
    entry.dest = nodes_[i];
    entry.next_hop = nodes_[hop];
    entry.metric = hops_[i];
    entry.installed_at = ctx.now();
    kernel.set_route(entry);
  }
  prev_first_hop_.swap(first_hop_);
  prev_hops_.swap(hops_);
  for (net::Addr old_dest : st->installed_dests()) {
    if (!std::binary_search(fresh_.begin(), fresh_.end(), old_dest)) {
      kernel.remove_route(old_dest);
    }
  }
  // Swap, don't move: fresh_ keeps the displaced capacity for next time.
  st->installed_dests().swap(fresh_);
  key.kernel_generation = kernel.generation();
  last_inputs_ = key;
}

EnergyRouteCalculator::EnergyRouteCalculator(core::ManetProtocolCf* mpr_cf)
    : RouteCalculator("olsr.EnergyRouteCalculator", mpr_cf) {}

double EnergyRouteCalculator::node_cost(const OlsrState& st,
                                        net::Addr via) const {
  // Residual-energy cost: a relay at full charge costs ~1 hop; a nearly
  // drained relay costs ~20, steering routes around it.
  return 1.0 / std::max(0.05, st.energy_of(via));
}

}  // namespace mk::proto
