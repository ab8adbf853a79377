// OLSR routing-table calculation, as a replaceable component: the default
// computes min-hop shortest paths (Dijkstra) over 1-hop/2-hop neighbourhood
// plus the TC-learned topology set, and installs host routes in the kernel
// table. The power-aware variant substitutes an energy-cost metric
// (maximise route lifetime by avoiding low-battery relays).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cfs.hpp"
#include "core/framework_manager.hpp"
#include "net/address.hpp"
#include "obs/metrics.hpp"
#include "opencom/component.hpp"
#include "protocols/olsr/olsr_state.hpp"

namespace mk::proto {

struct INeighborState;

struct IRouteCalculator : oc::Interface {
  /// Recomputes all routes and syncs the kernel table (adding new routes,
  /// removing stale OLSR-owned ones).
  virtual void recompute(core::ProtocolContext& ctx) = 0;
};

class RouteCalculator : public oc::Component, public IRouteCalculator {
 public:
  /// `mpr_cf` is the MPR CF instance whose S element supplies neighbourhood
  /// information (a cross-CF direct-call binding in the paper's terms). The
  /// binding follows the MPR CF through replacement.
  explicit RouteCalculator(core::ManetProtocolCf* mpr_cf);

  /// Skips the run (a memo hit) while every input is unchanged: the
  /// neighbour state and OlsrState (pointer and version()) and the kernel
  /// table (pointer and generation() as this calculator's own writes left
  /// it). Otherwise runs Dijkstra and writes only the routes that changed.
  void recompute(core::ProtocolContext& ctx) override;

  /// Addresses in the persistent node index: self plus every address the
  /// run that last rebuilt it named (some may have left since).
  std::size_t indexed_nodes() const { return nodes_.size(); }

 protected:
  RouteCalculator(std::string type_name, core::ManetProtocolCf* mpr_cf);

  /// Cost of traversing intermediate node `via` (hop metric = 1.0). Called
  /// once per indexed node per run, so it may be a lookup.
  virtual double node_cost(const OlsrState& st, net::Addr via) const;

  core::UnitRef mpr_cf_;

 private:
  struct InputKey {
    const INeighborState* nbr = nullptr;
    std::uint64_t nbr_version = 0;
    const OlsrState* olsr = nullptr;
    std::uint64_t olsr_version = 0;
    const net::KernelRouteTable* kernel = nullptr;
    std::uint64_t kernel_generation = 0;
    bool operator==(const InputKey&) const = default;
  };

  /// Maps scratch_edges_ onto edge_idx_; false if an endpoint is unindexed.
  bool map_edges();
  /// Re-indexes the endpoints of scratch_edges_ plus `self`, dropping nodes
  /// that no longer appear.
  void rebuild_index(net::Addr self);
  std::uint32_t index_of(net::Addr a) const;
  std::size_t home_slot(net::Addr a) const;

  InputKey last_inputs_;  // all-null until the first full run, and after
                          // an index rebuild
  obs::Counter* runs_ = nullptr;      // cached: olsr.route_recomputes
  obs::Counter* skips_ = nullptr;     // cached: olsr.route_recompute_skips
  obs::Counter* rebuilds_ = nullptr;  // cached: olsr.route_index_rebuilds

  // Persistent node index: nodes_ is sorted (position = index) and slots_
  // is an open-addressed address -> index table over it. It survives across
  // runs and is rebuilt only when an edge names an unindexed address. Index
  // order is address order, so every tie-break (heap pops, edge iteration,
  // install order) matches a per-run sort of the live addresses.
  std::vector<net::Addr> nodes_;
  std::vector<std::uint32_t> slots_;
  unsigned slot_shift_ = 32;

  // Per-run scratch: every vector keeps its capacity between calls, so the
  // steady state performs no allocation.
  std::vector<std::pair<net::Addr, net::Addr>> scratch_edges_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_idx_;
  std::vector<std::uint32_t> adj_start_;  // CSR offsets into adj_
  std::vector<std::uint32_t> adj_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> cost_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> first_hop_;
  std::vector<std::uint32_t> hops_;
  std::vector<net::Addr> fresh_;

  // The previous run's first_hop_/hops_ (swapped in, not copied): its output
  // route per node. While the kernel table is the one that run left (pointer
  // and generation() in last_inputs_), those routes are exactly what the
  // kernel holds, so a route that comes out the same needs no set_route.
  std::vector<std::uint32_t> prev_first_hop_;
  std::vector<std::uint32_t> prev_hops_;
};

/// Energy-aware path selection: traversal cost grows steeply as the relay's
/// advertised residual battery drops, so min-cost paths are the
/// longest-lifetime paths.
class EnergyRouteCalculator final : public RouteCalculator {
 public:
  explicit EnergyRouteCalculator(core::ManetProtocolCf* mpr_cf);

 protected:
  double node_cost(const OlsrState& st, net::Addr via) const override;
};

}  // namespace mk::proto
