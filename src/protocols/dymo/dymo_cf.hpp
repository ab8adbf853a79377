// The DYMO CF (§5.2, Fig. 6): a reactive (on-demand) routing protocol built
// on the Neighbour Detection CF and the System CF's NetLink component.
//
// Event tuple:
//   required = {RM_IN, RERR_IN, NO_ROUTE, ROUTE_UPDATE, SEND_ROUTE_ERR,
//               NHOOD_CHANGE}   (NO_ROUTE exclusively)
//   provided = {RM_OUT, RERR_OUT, ROUTE_FOUND}
//
// Route discovery is driven by NO_ROUTE events from NetLink (a packet had no
// route and was buffered); ROUTE_UPDATE extends lifetimes on data-plane use;
// SEND_ROUTE_ERR / NHOOD_CHANGE trigger invalidation + RERR. On successful
// discovery DYMO emits ROUTE_FOUND, making NetLink re-inject the buffered
// packets. Those three handlers, the pending-discovery table and the kernel
// sync are the reactive skeleton (protocols/reactive.hpp) shared with AODV;
// DYMO plugs in its S element and its RM/RERR emitter.
//
// The RE (routing element) handler and the invalidation handler are exported
// so variants can subclass/replace them (§5.2).
#pragma once

#include <memory>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "protocols/dymo/dymo_state.hpp"
#include "protocols/reactive.hpp"
#include "protocols/wire.hpp"

namespace mk::proto {

struct DymoParams {
  Duration route_lifetime = sec(5);
  Duration rreq_wait = sec(1);        // initial retry backoff
  Duration duplicate_hold = sec(5);
  std::uint8_t rreq_hop_limit = 10;
  std::uint8_t rerr_hop_limit = 3;
};

/// Soft-state set ids of the DYMO CF (and its ZRP/multipath/gossip
/// derivatives), fixed by definition order in build_dymo_cf.
namespace dymo_sets {
inline constexpr core::ISoftExpiry::SetId kRoute = reactive::kRouteSet;
inline constexpr core::ISoftExpiry::SetId kPending = reactive::kPendingSet;
inline constexpr core::ISoftExpiry::SetId kDuplicate = reactive::kSeenSet;
}  // namespace dymo_sets

/// Packs an RM duplicate-set tuple into a soft-state key.
inline std::uint64_t dymo_dup_key(net::Addr origin, std::uint16_t seq) {
  return (static_cast<std::uint64_t>(origin) << 16) | seq;
}

// -- RM / RERR codecs (shared with tests and the DYMOUM baseline parity) -------
namespace rm {

enum class Kind : std::uint8_t { kRreq = 0, kRrep = 1 };

pbb::Message build_rreq(net::Addr self, std::uint16_t own_seq, net::Addr target,
                        std::uint8_t hop_limit);
pbb::Message build_rrep(net::Addr self, std::uint16_t own_seq,
                        net::Addr rreq_origin, std::uint8_t hop_limit);

/// Appends `self` to the path-accumulation block; call *after* bumping
/// hop_count for this relay.
void append_self(pbb::Message& msg, net::Addr self, std::uint16_t seq);

Kind kind(const pbb::Message& msg);
net::Addr target(const pbb::Message& msg);

pbb::Message build_rerr(net::Addr self, std::uint16_t seq,
                        const std::vector<std::pair<net::Addr, std::uint16_t>>&
                            unreachable,
                        std::uint8_t hop_limit);

}  // namespace rm

/// Core DYMO routing-element logic (RREQ/RREP processing with path
/// accumulation). Variants override the relaying decision. With a multipath
/// S element installed, duplicate RREQs and later RREPs are mined for
/// alternate link-disjoint paths instead of discarded, whatever relaying
/// policy is plugged in.
class ReHandler : public core::EventHandler {
 public:
  explicit ReHandler(DymoParams params);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  ReHandler(std::string type_name, DymoParams params);

  /// Gate on rebroadcasting a fresh RREQ. Default: always relay (blind
  /// flooding). The optimised-flooding variant relays only when the
  /// previous hop selected this node as a multipoint relay.
  virtual bool should_relay_rreq(const ev::Event& event,
                                 core::ProtocolContext& ctx);

  /// Replies to an RREQ. `bump_seq` = false replays the current sequence
  /// number — used when answering *duplicate* RREQs so the originator sees
  /// the copies as equal-freshness alternatives rather than replacements.
  void send_rrep(const ev::Event& rreq_event, core::ProtocolContext& ctx,
                 bool bump_seq = true);

  /// The CF's shared soft-state layer (lazily resolved, may be null in
  /// stripped-down test compositions).
  core::SoftExpiry* soft(core::ProtocolContext& ctx);

  DymoParams params_;

 private:
  /// Learns routes from the message (originator + accumulated path) through
  /// the previous hop.
  void learn(const ev::Event& event, core::ProtocolContext& ctx);

  /// Relays `msg` one hop further with this node appended to its path;
  /// broadcast unless `unicast_to` names a next hop.
  void forward(const pbb::Message& msg, core::ProtocolContext& ctx,
               net::Addr unicast_to);

  obs::Counter* rm_in_ = nullptr;      // cached "dymo.rm_in"
  obs::Counter* rrep_sent_ = nullptr;  // cached "dymo.rrep_sent"
  core::SoftExpiry* soft_ = nullptr;   // cached per composition epoch
};

/// Link-break invalidation (the reactive skeleton's handler) reporting in
/// DYMO RERRs. The multipath variant overrides fail_via() to switch to
/// alternate paths first.
class RouteInvalidationHandler : public reactive::InvalidationHandler {
 public:
  explicit RouteInvalidationHandler(DymoParams params);

 protected:
  RouteInvalidationHandler(std::string type_name, DymoParams params);
};

/// NO_ROUTE (the reactive skeleton's handler) discovering with DYMO RREQs.
/// The zone-hybrid protocol overrides try_local_knowledge() to satisfy
/// in-zone destinations proactively, without flooding.
class NoRouteHandler : public reactive::NoRouteHandler {
 public:
  explicit NoRouteHandler(DymoParams params);

 protected:
  NoRouteHandler(std::string type_name, DymoParams params);
};

/// RERR processing: invalidate matching routes and propagate.
class RerrHandler final : public core::EventHandler {
 public:
  RerrHandler();
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  core::SoftExpiry* soft_ = nullptr;  // cached per composition epoch
  obs::Counter* rerr_in_ = nullptr;   // cached "dymo.rerr_in"
};

/// Kernel-table sync and ROUTE_FOUND emission: the reactive skeleton's
/// helpers under their DYMO names (used by the zone hybrid and replication).
inline constexpr auto& dymo_install_kernel_route = reactive::install_route;
inline constexpr auto& dymo_remove_kernel_route = reactive::remove_route;
inline constexpr auto& dymo_emit_route_found = reactive::emit_route_found;

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit,
                                                     DymoParams params = {});

/// Registers "dymo" (layer 20, category "reactive"); also registers
/// "neighbor" if absent.
void register_dymo(core::Manetkit& kit, DymoParams params = {});

DymoState* dymo_state(core::ManetProtocolCf& cf);

}  // namespace mk::proto
