// Oracle for the OLSR route calculator's persistent node index and its
// install-by-diff. RouteCalculator::recompute keeps an address index across
// runs (rebuilt, compacted, only when an unseen address appears) and skips
// the set_route calls its previous output proves to be no-ops while the
// kernel table is the one it last left. After every 100 ms mobility step
// this suite triggers the deployed calculator on every running OLSR node
// and requires the kernel routes it owns (dest, next hop, metric) to equal
// the sort-based reference computation (tests/support) over the same
// inputs.
//
// The worlds cover index growth (nodes joining), compaction (nodes leaving
// for longer than the 15 s topology hold, then a new address arriving), a
// crash that wipes state and kernel table followed by a rehydrate, a
// foreign set_route on an OLSR-owned destination (the next run must repair
// it, so a diff may only be taken while generation() is unmoved), and the
// power-aware variant under live on/off churn with draining batteries.
//
// World seeds come from MK_CHAOS_SEED (default 1234): the CI chaos matrix
// runs this suite on several seeds under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "protocols/neighbor/neighbor_state.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "protocols/olsr/route_calculator.hpp"
#include "support/reference_olsr_routes.hpp"
#include "testbed/world.hpp"

namespace mk::proto {
namespace {

constexpr std::size_t kNodes = 50;
constexpr Duration kStep = msec(100);

std::uint64_t chaos_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

net::RandomWaypoint::Params mobile_params() {
  net::RandomWaypoint::Params p;
  p.width = 1000.0;
  p.height = 1000.0;
  p.range = 250.0;
  p.max_speed = 10.0;
  return p;
}

core::ManetProtocolCf* running_olsr(testbed::SimWorld& world, std::size_t i) {
  if (!world.has_kit(i)) return nullptr;
  core::ManetProtocolCf* olsr = world.kit(i).protocol("olsr");
  if (olsr == nullptr || !olsr->running()) return nullptr;
  return olsr;
}

RouteCalculator* deployed_calculator(core::ManetProtocolCf& olsr) {
  return dynamic_cast<RouteCalculator*>(olsr.find("RouteCalculator"));
}

std::uint64_t counter(testbed::SimWorld& world, std::size_t i,
                      const std::string& name) {
  return world.has_kit(i) ? world.kit(i).metrics().counter_value(name) : 0;
}

std::uint64_t total(testbed::SimWorld& world, const std::string& name) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < world.size(); ++i) sum += counter(world, i, name);
  return sum;
}

/// The routes node `i`'s OLSR owns in its kernel table, ascending by dest.
std::vector<test::ReferenceRoute> installed_routes(testbed::SimWorld& world,
                                                   std::size_t i,
                                                   OlsrState& st) {
  std::vector<test::ReferenceRoute> out;
  for (net::Addr dest : st.installed_dests()) {
    auto route = world.node(i).kernel_table().lookup(dest);
    out.push_back({dest, route ? route->next_hop : net::kNoAddr,
                   route ? route->metric : 0});
  }
  return out;
}

/// Triggers the deployed calculator on every running OLSR node, then
/// compares what it owns in the kernel with the reference; returns how many
/// nodes differ.
int mismatched_nodes(testbed::SimWorld& world) {
  int mismatched = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    core::ManetProtocolCf* olsr = running_olsr(world, i);
    core::ManetProtocolCf* mpr =
        olsr == nullptr ? nullptr : world.kit(i).protocol("mpr");
    if (mpr == nullptr) continue;
    olsr_recompute_routes(*olsr);

    auto lock = olsr->quiesce();
    OlsrState* st = olsr_state(*olsr);
    auto* nbr = mpr->state_component()->interface_as<INeighborState>(
        "INeighborState");
    test::NodeCost cost = [](net::Addr) { return 1.0; };
    if (is_power_aware(world.kit(i))) {
      cost = [st](net::Addr via) {
        return 1.0 / std::max(0.05, st->energy_of(via));
      };
    }
    const auto expected =
        test::reference_olsr_routes(world.addr(i), *nbr, *st, cost);
    if (installed_routes(world, i, *st) != expected) {
      ADD_FAILURE() << "node " << i << " diverges from the reference at t="
                    << world.now().us << "us";
      ++mismatched;
    }
  }
  return mismatched;
}

/// Overwrites one OLSR-owned route of node `i` behind the calculator's back
/// (a different metric); returns false if the node owns no route yet.
bool foreign_write(testbed::SimWorld& world, std::size_t i) {
  OlsrState* st = olsr_state(*world.kit(i).protocol("olsr"));
  if (st->installed_dests().empty()) return false;
  net::KernelRouteTable& kernel = world.node(i).kernel_table();
  net::RouteEntry entry = *kernel.lookup(st->installed_dests().front());
  entry.metric += 7;
  return kernel.set_route(entry);
}

TEST(RouteIndex, PlainWorldMatchesReferenceEveryStep) {
  const std::uint64_t seed = chaos_seed();
  testbed::SimWorld world(kNodes, seed);
  world.enable_mobility(mobile_params(), seed + 1);
  world.enable_replication();
  world.deploy_all("olsr");

  // A full crash (state wiped, kernel table cleared) and its rehydrate from
  // peer replicas; foreign writes into converged tables at two points.
  constexpr std::size_t kVictim = 17;
  constexpr std::size_t kForeign = 31;
  constexpr int kSteps = 300;  // 30 sim-s: past the 15 s topology hold
  int repaired = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step == 60) world.crash_node(kVictim);
    if (step == 70) world.restart_node(kVictim);
    if (step == 120 || step == 240) {
      const std::uint64_t runs =
          counter(world, kForeign, "olsr.route_recomputes");
      ASSERT_TRUE(foreign_write(world, kForeign));
      ASSERT_EQ(mismatched_nodes(world), 0)
          << "foreign write at step " << step;
      ASSERT_GT(counter(world, kForeign, "olsr.route_recomputes"), runs);
      ++repaired;
    }
    world.step_mobility(kStep);
    ASSERT_EQ(mismatched_nodes(world), 0);
  }
  EXPECT_EQ(repaired, 2);
  EXPECT_GE(counter(world, kVictim, "repl.rehydrates"), 1u);
  // The index persists: far fewer rebuilds than runs.
  const std::uint64_t runs = total(world, "olsr.route_recomputes");
  const std::uint64_t rebuilds = total(world, "olsr.route_index_rebuilds");
  EXPECT_GE(rebuilds, kNodes);
  EXPECT_LT(rebuilds * 10, runs);
}

// Regression: an MPR_CHANGE schedules a follow-up TC 3 s later; a crash
// (with replication, a real one that stops every CF) inside that window
// used to fire the re-emission through the stopped MPR CF, whose soft-state
// layer has no context, and the process died. The crash-wipe world above
// hit it at MK_CHAOS_SEED=99.
TEST(RouteIndex, CrashWithPendingTriggeredTcStaysSilent) {
  const std::uint64_t seed = chaos_seed();
  testbed::SimWorld world(kNodes, seed);
  world.enable_mobility(mobile_params(), seed + 1);
  world.enable_replication();
  world.deploy_all("olsr");
  std::vector<std::uint64_t> triggered(kNodes, 0);
  std::size_t victim = kNodes;
  for (int ms = 0; ms < 30'000 && victim == kNodes; ms += 10) {
    world.run_for(msec(10));
    for (std::size_t i = 0; i < kNodes && victim == kNodes; ++i) {
      const std::uint64_t t = counter(world, i, "olsr.triggered_tc");
      if (ms >= 5'000 && t > triggered[i]) victim = i;
      triggered[i] = t;
    }
  }
  ASSERT_LT(victim, kNodes) << "no triggered TC within 30 sim-s";
  world.crash_node(victim);
  const std::uint64_t tc_out = counter(world, victim, "olsr.tc_out");
  world.run_for(sec(4));  // past the 3 s re-emission delay
  EXPECT_EQ(counter(world, victim, "olsr.tc_out"), tc_out);
  world.restart_node(victim);
  world.run_for(sec(6));
  EXPECT_GT(counter(world, victim, "olsr.tc_out"), tc_out);
}

TEST(RouteIndex, PowerAwareWorldMatchesReferenceEveryStep) {
  const std::uint64_t seed = chaos_seed();
  testbed::SimWorld world(kNodes, seed + 2);
  world.enable_mobility(mobile_params(), seed + 3);
  world.deploy_all("olsr");
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.node(i).set_battery(0.2 + 0.8 * static_cast<double>(i % 9) / 8.0);
    world.kit(i).system().ensure_power_status(sec(1));
  }
  // Even nodes stay power-aware (their residual-power floods keep moving
  // the energy maps); odd nodes toggle the variant, one per step, which
  // installs a cold calculator each time.
  for (std::size_t i = 0; i < world.size(); i += 2) {
    apply_power_aware(world.kit(i));
  }
  constexpr int kSteps = 300;
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
    ASSERT_EQ(mismatched_nodes(world), 0);
  }
  EXPECT_GT(total(world, "olsr.route_recompute_skips"), 0u);
}

TEST(RouteIndex, JoinGrowsAndLeaveCompactsIndex) {
  const std::uint64_t seed = chaos_seed();
  testbed::SimWorld world(kNodes, seed + 4);
  world.enable_mobility(mobile_params(), seed + 5);
  // 35 founders; 5 join at 3 s; 10 founders leave (radio off) at 8 s; 5
  // more join at 28 s, 20 s after the leave: every trace of the leavers
  // (15 s topology hold, 6 s neighbour hold) is gone by then, so the
  // rebuild the new addresses trigger compacts the index to live nodes.
  constexpr std::size_t kFounders = 35;
  auto join = [&world](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) world.kit(i).deploy("olsr");
  };
  auto live = [](std::size_t i) { return i < 20 || (i >= 30 && i < 45); };
  join(0, kFounders);

  std::vector<std::uint64_t> rebuilds_before(kNodes, 0);
  int grown = 0;
  constexpr int kSteps = 330;
  for (int step = 0; step < kSteps; ++step) {
    if (step == 30) {
      for (std::size_t i = 0; i < kFounders; ++i) {
        rebuilds_before[i] = counter(world, i, "olsr.route_index_rebuilds");
      }
      join(kFounders, 40);
    }
    if (step == 80) {
      for (std::size_t i = 0; i < kFounders; ++i) {
        if (counter(world, i, "olsr.route_index_rebuilds") >
            rebuilds_before[i]) {
          ++grown;
        }
      }
      for (std::size_t i = 20; i < 30; ++i) world.crash_node(i);
    }
    if (step == 280) {
      for (std::size_t i = 0; i < 40; ++i) {
        if (!live(i)) continue;
        rebuilds_before[i] = counter(world, i, "olsr.route_index_rebuilds");
      }
      join(40, 45);
    }
    world.step_mobility(kStep);
    ASSERT_EQ(mismatched_nodes(world), 0);
  }
  EXPECT_GE(grown, 30) << "joiners must grow most founders' indexes";

  // Nodes that rebuilt after the late join hold live nodes only; without
  // compaction they would still index the ten leavers.
  int rebuilt = 0;
  constexpr std::size_t kLive = 35;
  for (std::size_t i = 0; i < 40; ++i) {
    if (!live(i)) continue;
    if (counter(world, i, "olsr.route_index_rebuilds") == rebuilds_before[i]) {
      continue;  // never heard a late joiner
    }
    ++rebuilt;
    EXPECT_LE(deployed_calculator(*running_olsr(world, i))->indexed_nodes(),
              kLive)
        << "node " << i << " kept departed nodes";
  }
  EXPECT_GE(rebuilt, 20) << "the late joiners must rebuild most indexes";
}

}  // namespace
}  // namespace mk::proto
