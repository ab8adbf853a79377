#include "protocols/dymo/multipath.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

MultipathDymoState& mp_state_of(core::ProtocolContext& ctx) {
  auto* s = dynamic_cast<MultipathDymoState*>(ctx.state());
  MK_ASSERT(s != nullptr, "multipath DYMO has no MultipathDymoState");
  return *s;
}

/// Route-error handler that fails over before reporting.
class MultipathInvalidationHandler final : public RouteInvalidationHandler {
 public:
  explicit MultipathInvalidationHandler(DymoParams params)
      : RouteInvalidationHandler("dymo.MultipathInvalidationHandler", params) {}

 protected:
  reactive::Unreachable fail_via(net::Addr hop,
                                 core::ProtocolContext& ctx) override {
    MultipathDymoState& st = mp_state_of(ctx);
    reactive::Unreachable unreachable;

    // Collect destinations whose *active* path uses the broken hop, then try
    // alternates before declaring them unreachable.
    std::vector<net::Addr> affected;
    for (const auto& [dest, route] : st.all_routes()) {
      if (route.valid && route.via() == hop) affected.push_back(dest);
    }
    for (net::Addr dest : affected) {
      if (auto alt = st.fail_over(dest)) {
        reactive::install_route(ctx, dest, alt->next_hop, alt->hops);
        // Flush anything NetLink buffered meanwhile.
        reactive::emit_route_found(ctx, dest);
        MK_DEBUG("dymo", "failed over ", pbb::addr_to_string(dest), " to ",
                 pbb::addr_to_string(alt->next_hop));
      } else {
        auto route = st.route_to(dest);
        reactive::remove_route(ctx, dest);
        unreachable.emplace_back(dest, route ? route->seqnum : 0);
      }
    }
    return unreachable;
  }
};

}  // namespace

void apply_multipath_dymo(core::Manetkit& kit, DymoParams params) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "multipath variant requires deployed dymo");
  if (is_multipath_dymo(kit)) return;

  auto lock = dymo->quiesce();

  // 1. S component: new format, state carried over. From here on whichever
  // RE handler is installed mines duplicates for alternate paths.
  auto* old_state = dymo_state(*dymo);
  MK_ASSERT(old_state != nullptr);
  dymo->set_state(std::make_unique<MultipathDymoState>(*old_state));

  // 2. Route-error handler: fail over before reporting.
  dymo->replace_handler("RouteErrHandler",
                        std::make_unique<MultipathInvalidationHandler>(params));
}

void remove_multipath_dymo(core::Manetkit& kit, DymoParams params) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  MK_ENSURE(dymo != nullptr, "dymo not deployed");
  if (!is_multipath_dymo(kit)) return;

  auto lock = dymo->quiesce();
  auto* old_state = dymo_state(*dymo);
  auto new_state = std::make_unique<DymoState>();
  // Carry routes back, truncating each to its active path.
  if (old_state != nullptr) {
    for (const auto& [dest, route] : old_state->all_routes()) {
      if (route.valid && route.active() != nullptr) {
        new_state->update_route(dest, route.seqnum, route.active()->next_hop,
                                route.active()->hops,
                                dymo->context().now(), params.route_lifetime);
      }
    }
  }
  dymo->set_state(std::move(new_state));
  dymo->replace_handler("RouteErrHandler",
                        std::make_unique<RouteInvalidationHandler>(params));
}

bool is_multipath_dymo(core::Manetkit& kit) {
  core::ManetProtocolCf* dymo = kit.protocol("dymo");
  if (dymo == nullptr) return false;
  return dynamic_cast<MultipathDymoState*>(dymo->state_component()) != nullptr;
}

}  // namespace mk::proto
