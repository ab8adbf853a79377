// OLSR routing-table calculation, as a replaceable component: the default
// computes min-hop shortest paths (Dijkstra) over 1-hop/2-hop neighbourhood
// plus the TC-learned topology set, and installs host routes in the kernel
// table. The power-aware variant substitutes an energy-cost metric
// (maximise route lifetime by avoiding low-battery relays).
#pragma once

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

 protected:
  RouteCalculator(std::string type_name, core::ManetProtocolCf* mpr_cf);

  /// Cost of traversing intermediate node `via` (hop metric = 1.0).
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
  InputKey last_inputs_;  // all-null until the first full run
  obs::Counter* runs_ = nullptr;   // cached: olsr.route_recomputes
  obs::Counter* skips_ = nullptr;  // cached: olsr.route_recompute_skips

  // Dijkstra scratch, reused across recomputes: addresses are mapped onto a
  // dense index space so distance/parent lookups are array reads and the
  // whole computation performs no steady-state allocation (the capacity of
  // every vector survives between calls).
  std::vector<std::pair<net::Addr, net::Addr>> scratch_edges_;
  std::vector<net::Addr> scratch_nodes_;  // sorted; position = dense index
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_idx_;
  std::vector<std::uint32_t> adj_start_;  // CSR offsets into edge_idx_
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> hops_;
  std::vector<net::Addr> fresh_;
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
