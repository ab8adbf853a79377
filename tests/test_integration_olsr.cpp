// End-to-end OLSR integration: HELLO sensing -> MPR selection -> TC
// diffusion -> route calculation -> kernel routes -> data delivery,
// on the paper's 5-node linear emulated topology.
#include <gtest/gtest.h>

#include "protocols/mpr/mpr_cf.hpp"
#include "protocols/olsr/olsr_cf.hpp"
#include "testbed/world.hpp"

namespace mk {
namespace {

TEST(OlsrIntegration, LinearFiveNodeConvergesToFullRoutes) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");

  auto converged = world.run_until_routed(sec(60));
  ASSERT_TRUE(converged.has_value()) << "OLSR did not converge in 60s";

  // Every node routes to every other; chain ends route via their neighbour.
  EXPECT_EQ(world.node(0).kernel_table().lookup(world.addr(4))->next_hop,
            world.addr(1));
  EXPECT_EQ(world.node(4).kernel_table().lookup(world.addr(0))->next_hop,
            world.addr(3));
  // Metric across the chain is 4 hops.
  EXPECT_EQ(world.node(0).kernel_table().lookup(world.addr(4))->metric, 4u);
}

TEST(OlsrIntegration, DataFlowsEndToEndAcrossChain) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  world.node(0).forwarding().send(world.addr(4), 512);
  world.run_for(sec(1));
  ASSERT_EQ(world.node(4).deliveries().size(), 1u);
  EXPECT_EQ(world.node(4).deliveries()[0].hdr.src, world.addr(0));
}

TEST(OlsrIntegration, MiddleNodeBecomesMprInChain) {
  testbed::SimWorld world(3);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());
  world.run_for(sec(10));  // one more HELLO round propagates MPR selection

  // Node 1 is the only way 0 reaches 2: both ends must select it as MPR.
  auto* mpr0 = proto::mpr_state(*world.kit(0).protocol("mpr"));
  ASSERT_NE(mpr0, nullptr);
  EXPECT_TRUE(mpr0->is_mpr(world.addr(1)));
  auto* mpr1 = proto::mpr_state(*world.kit(1).protocol("mpr"));
  EXPECT_TRUE(mpr1->is_mpr_selector(world.addr(0)));
  EXPECT_TRUE(mpr1->is_mpr_selector(world.addr(2)));
}

TEST(OlsrIntegration, NewNodeJoiningLearnsFullTable) {
  testbed::SimWorld world(5);
  // Start with only the first 4 nodes linked.
  auto addrs = world.addrs();
  for (std::size_t i = 0; i + 2 < addrs.size(); ++i) {
    world.medium().set_link(addrs[i], addrs[i + 1], true);
  }
  world.deploy_all("olsr");
  world.run_for(sec(30));

  // Node 4 arrives at the end of the chain.
  world.medium().set_link(addrs[3], addrs[4], true);
  bool ok = false;
  for (int i = 0; i < 600; ++i) {
    world.run_for(msec(100));
    if (world.node(4).kernel_table().lookup(addrs[0]).has_value() &&
        world.node(4).kernel_table().lookup(addrs[1]).has_value() &&
        world.node(4).kernel_table().lookup(addrs[2]).has_value() &&
        world.node(4).kernel_table().lookup(addrs[3]).has_value()) {
      ok = true;
      break;
    }
  }
  EXPECT_TRUE(ok) << "joining node never computed a full routing table";
}

TEST(OlsrIntegration, LinkBreakInvalidatesRoutes) {
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  // Cut the chain in the middle; ends should eventually lose routes across
  // the break (neighbour hold time is 6s, topology hold 15s).
  world.medium().set_link(world.addr(2), world.addr(3), false);
  world.run_for(sec(25));
  EXPECT_FALSE(world.has_route(0, world.addr(4)));
  EXPECT_FALSE(world.has_route(4, world.addr(0)));
  // Connectivity within each fragment survives.
  EXPECT_TRUE(world.has_route(0, world.addr(2)));
  EXPECT_TRUE(world.has_route(4, world.addr(3)));
}

TEST(OlsrIntegration, RoutesFollowAReplacedMprCf) {
  // The OLSR CF reads its neighbourhood from the MPR CF. Replacing "mpr"
  // (as a supervised restart does) must re-bind that read to the new
  // instance, never leave it on the freed one.
  testbed::SimWorld world(5);
  world.linear();
  world.deploy_all("olsr");
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  core::Manetkit::ReplaceOptions fresh;
  fresh.carry_state = false;  // the new MPR CF learns its neighbourhood anew
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(world.kit(i).replace_protocol("mpr", "mpr", fresh).committed);
  }
  ASSERT_TRUE(world.run_until_routed(sec(60)).has_value());

  // Routes track the new CFs' view: cut the chain in the middle.
  world.medium().set_link(world.addr(2), world.addr(3), false);
  world.run_for(sec(25));
  EXPECT_FALSE(world.has_route(0, world.addr(4)));
  EXPECT_FALSE(world.has_route(4, world.addr(0)));
  EXPECT_TRUE(world.has_route(0, world.addr(2)));
  EXPECT_TRUE(world.has_route(4, world.addr(3)));
}

}  // namespace
}  // namespace mk
