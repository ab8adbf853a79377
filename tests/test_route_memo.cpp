// Oracle for the OLSR route-recompute memo. RouteCalculator::recompute
// returns early while its versioned inputs are unchanged, so a missing
// version bump would leave a stale kernel table behind. After every 100 ms
// mobility step this suite triggers the deployed (memoised) calculator on
// every node, then runs a freshly built calculator of the deployed type (no
// memo, full Dijkstra) and requires it to write nothing: the kernel
// generation stays put and no route record is journaled. That is, the
// memoised table equals a full recompute at every step boundary.
//
// The deployed calculator is triggered first because OLSR does not recompute
// on every input change: a HELLO that only changes a neighbour's two-hop set
// raises no NHOOD_CHANGE, so even an always-recomputing calculator can hold a
// table that lags its inputs until the next TC. The trigger makes the memo
// decide at every step boundary, and the fresh calculator checks the decision.
//
// Two 50-node RandomWaypoint worlds, each run for 30 sim-s (twice the 15 s
// topology holding time, so soft-state drops occur): a plain one in which one
// node crashes and rehydrates and another rehydrates live (OlsrState
// reset/decode), and one under live power-aware on/off churn with draining
// batteries (energy map, calculator swaps). Deleting any version bump that
// these worlds reach makes one of them fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

constexpr std::size_t kNodes = 50;
constexpr Duration kStep = msec(100);
constexpr int kSteps = 300;  // 30 sim-s

class MemoOracle {
 public:
  explicit MemoOracle(testbed::SimWorld& world) : world_(world) {
    world.enable_tracing().add_observer([this](const obs::Record& r) {
      if (r.kind == obs::RecordKind::kRouteAdd ||
          r.kind == obs::RecordKind::kRouteDel) {
        ++route_records_;
      }
    });
  }

  /// Triggers the deployed calculator, then runs a fresh one, on every
  /// running OLSR node; returns how many nodes the fresh one had to rewrite
  /// (0 = every memo decision was exact).
  int stale_nodes() {
    int stale = 0;
    for (std::size_t i = 0; i < world_.size(); ++i) {
      core::Manetkit& kit = world_.kit(i);
      core::ManetProtocolCf* olsr = kit.protocol("olsr");
      core::ManetProtocolCf* mpr = kit.protocol("mpr");
      if (olsr == nullptr || mpr == nullptr || !olsr->running()) continue;
      olsr_recompute_routes(*olsr);
      std::unique_ptr<RouteCalculator> fresh;
      if (is_power_aware(kit)) {
        fresh = std::make_unique<EnergyRouteCalculator>(mpr);
      } else {
        fresh = std::make_unique<RouteCalculator>(mpr);
      }
      const std::uint64_t gen = world_.node(i).kernel_table().generation();
      const std::uint64_t records = route_records_;
      {
        auto lock = olsr->quiesce();
        fresh->recompute(olsr->context());
      }
      if (world_.node(i).kernel_table().generation() != gen ||
          route_records_ != records) {
        ++stale;
      }
    }
    ++checks_;
    return stale;
  }

  int checks() const { return checks_; }

 private:
  testbed::SimWorld& world_;
  std::uint64_t route_records_ = 0;
  int checks_ = 0;
};

net::RandomWaypoint::Params mobile_params() {
  net::RandomWaypoint::Params p;
  p.width = 1000.0;
  p.height = 1000.0;
  p.range = 250.0;
  p.max_speed = 10.0;
  return p;
}

std::uint64_t counter(testbed::SimWorld& world, const std::string& name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    total += world.kit(i).metrics().counter_value(name);
  }
  return total;
}

TEST(RouteMemo, PlainOlsrMatchesFullRecomputeEveryStep) {
  testbed::SimWorld world(kNodes, /*seed=*/11);
  world.enable_mobility(mobile_params(), /*seed=*/23);
  MemoOracle oracle(world);
  world.enable_replication();
  world.deploy_all("olsr");

  // A full crash (state wiped, kernel table cleared) and, later, the
  // supervisor's recovery-ladder request on a live node: its OLSR state is
  // decoded from a peer's older replica while its kernel table stays as is.
  constexpr std::size_t kVictim = 17;
  constexpr std::size_t kLive = 23;
  for (int step = 0; step < kSteps; ++step) {
    if (step == 60) world.crash_node(kVictim);
    if (step == 70) world.restart_node(kVictim);
    if (step == 150) {
      // Check right as the replica lands: later TCs would soon rebuild the
      // topology set and hide a decode the memo missed.
      const auto applied = [&] {
        return world.kit(kLive).metrics().counter_value("repl.rehydrates");
      };
      const std::uint64_t before = applied();
      ASSERT_TRUE(world.replication(kLive)->request_rehydrate("olsr"));
      for (int ms = 0; ms < 100 && applied() == before; ++ms) {
        world.run_for(msec(1));
      }
      ASSERT_GT(applied(), before);
      ASSERT_EQ(oracle.stale_nodes(), 0) << "after the live rehydrate";
    }
    world.step_mobility(kStep);
    ASSERT_EQ(oracle.stale_nodes(), 0)
        << "memoised tables diverged at t=" << world.now().us << "us";
  }
  EXPECT_EQ(oracle.checks(), kSteps + 1);
  for (std::size_t node : {kVictim, kLive}) {
    EXPECT_GE(world.kit(node).metrics().counter_value("repl.rehydrates"), 1u)
        << "node " << node << " must exercise OlsrState decode";
  }
  // The memo must actually be exercised in both directions.
  EXPECT_GT(counter(world, "olsr.route_recompute_skips"), 0u);
  EXPECT_GT(counter(world, "olsr.route_recomputes"), 0u);
}

TEST(RouteMemo, PowerAwareChurnMatchesFullRecomputeEveryStep) {
  testbed::SimWorld world(kNodes, /*seed=*/5);
  world.enable_mobility(mobile_params(), /*seed=*/31);
  MemoOracle oracle(world);
  world.deploy_all("olsr");
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.node(i).set_battery(0.2 + 0.8 * static_cast<double>(i % 9) / 8.0);
    world.kit(i).system().ensure_power_status(sec(1));
  }

  // Even nodes stay power-aware, so their residual-power floods (every 5 s)
  // keep moving the energy maps while every battery drains; odd nodes
  // toggle the variant live, one per step, swapping calculators.
  for (std::size_t i = 0; i < world.size(); i += 2) {
    apply_power_aware(world.kit(i));
  }
  for (int step = 0; step < kSteps; ++step) {
    core::Manetkit& kit = world.kit((2 * step + 1) % world.size());
    if (is_power_aware(kit)) {
      remove_power_aware(kit);
    } else {
      apply_power_aware(kit);
    }
    for (std::size_t i = 0; i < world.size(); ++i) {
      net::SimNode& node = world.node(i);
      node.set_battery(node.battery() > 0.1 ? node.battery() - 0.01 : 1.0);
    }
    world.step_mobility(kStep);
    ASSERT_EQ(oracle.stale_nodes(), 0)
        << "memoised tables diverged at t=" << world.now().us << "us";
  }
  EXPECT_EQ(oracle.checks(), kSteps);
  EXPECT_GT(counter(world, "olsr.route_recompute_skips"), 0u);
}

}  // namespace
}  // namespace mk::proto
