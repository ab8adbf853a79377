#include "protocols/dymo/dymo_cf.hpp"

#include "core/attrs.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

namespace {

using core::attrs::kUnicastTo;

DymoState& dymo_state_of(core::ProtocolContext& ctx) {
  auto* s = dynamic_cast<DymoState*>(ctx.state());
  MK_ASSERT(s != nullptr, "DYMO CF has no DymoState S element");
  return *s;
}

/// The RM_OUT and RERR_OUT event types, each resolved once on first use.
ev::EventTypeId rm_out() {
  static const ev::EventTypeId id = ev::etype(ev::types::RM_OUT);
  return id;
}
ev::EventTypeId rerr_out() {
  static const ev::EventTypeId id = ev::etype(ev::types::RERR_OUT);
  return id;
}

/// DYMO's plug-in into the reactive skeleton: RM route requests and RERRs.
/// Each invalidation handler owns one, so a replaced handler restarts its
/// RERR sequence.
class DymoEmitter final : public reactive::Emitter {
 public:
  explicit DymoEmitter(DymoParams params) : Emitter("dymo"), params_(params) {}

  void send_rreq(core::ProtocolContext& ctx, net::Addr target) override {
    ev::Event e(rm_out());
    e.set_msg(rm::build_rreq(ctx.self(), dymo_state_of(ctx).bump_seq(), target,
                             params_.rreq_hop_limit));
    ctx.emit(std::move(e));
  }

  void send_rerr(core::ProtocolContext& ctx,
                 const reactive::Unreachable& lost) override {
    ev::Event e(rerr_out());
    e.set_msg(rm::build_rerr(ctx.self(), rerr_seq_++, lost,
                             params_.rerr_hop_limit));
    if (rerr_count_ == nullptr) {
      rerr_count_ = &ctx.metrics().counter("dymo.rerr_out");
    }
    rerr_count_->inc();
    ctx.emit(std::move(e));
  }

 private:
  DymoParams params_;
  std::uint16_t rerr_seq_ = 1;
  obs::Counter* rerr_count_ = nullptr;  // cached "dymo.rerr_out"
};

}  // namespace

// ------------------------------------------------------------------ RM codec

namespace rm {

namespace {

/// An RM of `kind` addressed to `target`, with an empty path-accumulation
/// block.
pbb::Message build(Kind kind, net::Addr self, std::uint16_t own_seq,
                   net::Addr target, std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRm;
  m.originator = self;
  m.seqnum = own_seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  m.tlvs.push_back(
      pbb::Tlv::u8(wire::kTlvRmKind, static_cast<std::uint8_t>(kind)));
  pbb::AddressBlock target_block;
  target_block.addrs.push_back(target);
  m.addr_blocks.push_back(std::move(target_block));
  m.addr_blocks.emplace_back();  // path-accumulation block
  return m;
}

}  // namespace

pbb::Message build_rreq(net::Addr self, std::uint16_t own_seq, net::Addr target,
                        std::uint8_t hop_limit) {
  return build(Kind::kRreq, self, own_seq, target, hop_limit);
}

pbb::Message build_rrep(net::Addr self, std::uint16_t own_seq,
                        net::Addr rreq_origin, std::uint8_t hop_limit) {
  return build(Kind::kRrep, self, own_seq, rreq_origin, hop_limit);
}

void append_self(pbb::Message& msg, net::Addr self, std::uint16_t seq) {
  MK_ASSERT(msg.addr_blocks.size() >= 2, "RM lacks accumulation block");
  pbb::AddressBlock& path = msg.addr_blocks[1];
  auto idx = static_cast<std::uint8_t>(path.addrs.size());
  path.addrs.push_back(self);
  path.tlvs.push_back(pbb::AddressTlv{
      wire::kAtlvSeqnum, idx, idx,
      {0, 0,  // u32 encoding of a 16-bit sequence number
       static_cast<std::uint8_t>(seq >> 8), static_cast<std::uint8_t>(seq)}});
  path.tlvs.push_back(
      pbb::AddressTlv{wire::kAtlvHops, idx, idx, {msg.hop_count}});
}

Kind kind(const pbb::Message& msg) {
  const auto* t = msg.find_tlv(wire::kTlvRmKind);
  return (t != nullptr && t->as_u8() == 1) ? Kind::kRrep : Kind::kRreq;
}

net::Addr target(const pbb::Message& msg) {
  if (msg.addr_blocks.empty() || msg.addr_blocks[0].addrs.empty()) {
    return net::kNoAddr;
  }
  return msg.addr_blocks[0].addrs[0];
}

pbb::Message build_rerr(
    net::Addr self, std::uint16_t seq,
    const std::vector<std::pair<net::Addr, std::uint16_t>>& unreachable,
    std::uint8_t hop_limit) {
  pbb::Message m;
  m.type = wire::kMsgDymoRerr;
  m.originator = self;
  m.seqnum = seq;
  m.has_hops = true;
  m.hop_limit = hop_limit;
  m.hop_count = 0;
  pbb::AddressBlock block;
  for (const auto& [dest, dseq] : unreachable) {
    block.add_with_u32(dest, wire::kAtlvSeqnum, dseq);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

}  // namespace rm

// ------------------------------------------------------------------ ReHandler

ReHandler::ReHandler(DymoParams params)
    : ReHandler("dymo.ReHandler", params) {}

ReHandler::ReHandler(std::string type_name, DymoParams params)
    : core::EventHandler(std::move(type_name), {"RM_IN"}), params_(params) {
  set_instance_name("ReHandler");
}

core::SoftExpiry* ReHandler::soft(core::ProtocolContext& ctx) {
  if (soft_ == nullptr) soft_ = core::soft_expiry_of(ctx);
  return soft_;
}

void ReHandler::learn(const ev::Event& event, core::ProtocolContext& ctx) {
  const pbb::Message& msg = *event.msg();

  // Route to the message originator via the previous hop.
  reactive::accept(ctx, soft(ctx), *msg.originator, *msg.seqnum, event.from,
                   static_cast<std::uint8_t>(msg.hop_count + 1),
                   params_.route_lifetime);

  // Routes to every node on the accumulated path.
  if (msg.addr_blocks.size() >= 2) {
    const pbb::AddressBlock& path = msg.addr_blocks[1];
    for (std::size_t i = 0; i < path.addrs.size(); ++i) {
      const auto* seq_tlv = path.tlv_for(i, wire::kAtlvSeqnum);
      const auto* hops_tlv = path.tlv_for(i, wire::kAtlvHops);
      if (seq_tlv == nullptr || hops_tlv == nullptr) continue;
      auto node_hops = hops_tlv->as_u8();
      if (node_hops > msg.hop_count) continue;  // malformed
      auto dist =
          static_cast<std::uint8_t>(msg.hop_count + 1 - node_hops);
      auto seq = static_cast<std::uint16_t>(seq_tlv->as_u32());
      reactive::accept(ctx, soft(ctx), path.addrs[i], seq, event.from, dist,
                       params_.route_lifetime);
    }
  }
}

void ReHandler::send_rrep(const ev::Event& rreq_event,
                          core::ProtocolContext& ctx, bool bump_seq) {
  const pbb::Message& rreq = *rreq_event.msg();
  DymoState& st = dymo_state_of(ctx);
  ev::Event out(rm_out());
  out.set_msg(rm::build_rrep(ctx.self(),
                             bump_seq ? st.bump_seq() : st.own_seq(),
                             *rreq.originator, params_.rreq_hop_limit));
  // Unicast back along the (just learned) reverse route.
  out.set_int(kUnicastTo, rreq_event.from);
  if (rrep_sent_ == nullptr) {
    rrep_sent_ = &ctx.metrics().counter("dymo.rrep_sent");
  }
  rrep_sent_->inc();
  ctx.emit(std::move(out));
}

bool ReHandler::should_relay_rreq(const ev::Event&, core::ProtocolContext&) {
  return true;
}

namespace {

/// Multipath DYMO (§5.2): records `event`'s previous hop as an alternate
/// link-disjoint path to `dest`. False without a multipath S element, or if
/// the path is not disjoint or the route is full.
bool mine_alternate(const ev::Event& event, core::ProtocolContext& ctx,
                    net::Addr dest) {
  auto* st = dynamic_cast<MultipathDymoState*>(ctx.state());
  return st != nullptr &&
         st->add_alternate_path(
             dest, event.from,
             static_cast<std::uint8_t>(event.msg()->hop_count + 1));
}

}  // namespace

void ReHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  if (rm_in_ == nullptr) rm_in_ = &ctx.metrics().counter("dymo.rm_in");
  rm_in_->inc();
  if (!event.has_msg()) return;
  const pbb::Message& msg = *event.msg();
  if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
  if (*msg.originator == ctx.self()) return;

  learn(event, ctx);

  DymoState& st = dymo_state_of(ctx);
  net::Addr target = rm::target(msg);
  if (target == net::kNoAddr) return;

  if (rm::kind(msg) == rm::Kind::kRreq) {
    bool dup = reactive::seen_before(ctx, soft(ctx), *msg.originator,
                                     *msg.seqnum);
    if (target == ctx.self()) {
      // A duplicate that yields an alternate reverse path is answered too,
      // with the *same* sequence number, so the originator learns one RREP
      // per disjoint approach direction (bounded by kMaxPaths).
      if (!dup) {
        send_rrep(event, ctx);
      } else if (mine_alternate(event, ctx, *msg.originator)) {
        send_rrep(event, ctx, /*bump_seq=*/false);
      }
      return;
    }
    if (dup) {
      // Keep an alternate reverse path; never rebroadcast (the first copy
      // already did).
      mine_alternate(event, ctx, *msg.originator);
      return;
    }
    if (msg.hop_limit <= 1) return;
    if (!should_relay_rreq(event, ctx)) return;
    // Path accumulation + rebroadcast.
    forward(msg, ctx, net::kNoAddr);
    return;
  }

  // RREP
  if (target == ctx.self()) {
    // Discovery complete; later copies via a different first hop add
    // alternate forward paths.
    mine_alternate(event, ctx, *msg.originator);
    reactive::end_discovery(st, soft(ctx), *msg.originator);
    return;
  }
  auto route = st.route_to(target);
  if (!route || !route->valid || route->active() == nullptr) {
    MK_TRACE("dymo", "cannot forward RREP toward ",
             pbb::addr_to_string(target));
    return;
  }
  if (msg.hop_limit <= 1) return;
  forward(msg, ctx, route->active()->next_hop);
}

void ReHandler::forward(const pbb::Message& msg, core::ProtocolContext& ctx,
                        net::Addr unicast_to) {
  ev::Event out(rm_out());
  // Copy-assign into the recycled pool slot: its warm buffers take the
  // copy without allocating.
  pbb::Message& fwd = out.acquire_msg();
  fwd = msg;
  fwd.hop_limit -= 1;
  fwd.hop_count += 1;
  rm::append_self(fwd, ctx.self(), dymo_state_of(ctx).own_seq());
  if (unicast_to != net::kNoAddr) out.set_int(kUnicastTo, unicast_to);
  ctx.emit(std::move(out));
}

// ------------------------------------- skeleton handlers with DYMO plug-ins

RouteInvalidationHandler::RouteInvalidationHandler(DymoParams params)
    : RouteInvalidationHandler("dymo.RouteInvalidationHandler", params) {}

RouteInvalidationHandler::RouteInvalidationHandler(std::string type_name,
                                                   DymoParams params)
    : reactive::InvalidationHandler(std::move(type_name), "RouteErrHandler",
                                    std::make_shared<DymoEmitter>(params)) {}

NoRouteHandler::NoRouteHandler(DymoParams params)
    : NoRouteHandler("dymo.NoRouteHandler", params) {}

NoRouteHandler::NoRouteHandler(std::string type_name, DymoParams params)
    : reactive::NoRouteHandler(std::move(type_name), params.rreq_wait,
                               std::make_shared<DymoEmitter>(params)) {}

RerrHandler::RerrHandler()
    : core::EventHandler("dymo.RerrHandler", {"RERR_IN"}) {
  set_instance_name("RerrHandler");
}

void RerrHandler::handle(const ev::Event& event, core::ProtocolContext& ctx) {
  if (rerr_in_ == nullptr) rerr_in_ = &ctx.metrics().counter("dymo.rerr_in");
  rerr_in_->inc();
  if (!event.has_msg() || !event.msg()->originator || !event.msg()->seqnum) {
    return;
  }
  const pbb::Message& msg = *event.msg();
  if (soft_ == nullptr) soft_ = core::soft_expiry_of(ctx);
  if (reactive::seen_before(ctx, soft_, *msg.originator, *msg.seqnum)) {
    return;
  }

  reactive::Unreachable still_unreachable =
      reactive::invalidate_reported(ctx, msg, event.from);
  if (!still_unreachable.empty() && msg.has_hops && msg.hop_limit > 1) {
    ev::Event out(rerr_out());
    out.set_msg(rm::build_rerr(ctx.self(), *msg.seqnum, still_unreachable,
                               static_cast<std::uint8_t>(msg.hop_limit - 1)));
    ctx.emit(std::move(out));
  }
}

// -------------------------------------------------------------------- builder

std::unique_ptr<core::ManetProtocolCf> build_dymo_cf(core::Manetkit& kit,
                                                     DymoParams params) {
  kit.deploy("neighbor");
  kit.system().ensure_netlink();
  kit.system().register_message(wire::kMsgDymoRm, "RM");
  kit.system().register_message(wire::kMsgDymoRerr, "RERR");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      kit.kernel(), "dymo", kit.scheduler(), kit.self(),
      &kit.system().sys_state());

  cf->set_state(std::make_unique<DymoState>());

  // Routes, pending discoveries (RREQ retry backoff) and the RM duplicate
  // set all live in the shared soft-state layer (set ids fixed by
  // definition order — see dymo_sets): each entry's deadline is armed
  // per-entry, so a route lapses — and its kernel entry goes — at its exact
  // lifetime, and RREQ retries fire at their exact backoff deadline.
  auto soft = std::make_unique<core::SoftExpiry>();
  reactive::define_sets(
      *soft, *cf, std::make_shared<DymoEmitter>(params), params.route_lifetime,
      params.rreq_wait, [](std::uint64_t key, core::ProtocolContext& ctx) {
        auto dest = static_cast<net::Addr>(key);
        if (dymo_state_of(ctx).drop_route(dest)) {
          reactive::remove_route(ctx, dest);
        }
      });
  reactive::define_seen_set(*soft, *cf, "dymo.duplicate",
                            params.duplicate_hold);
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<ReHandler>(params));
  cf->add_handler(std::make_unique<NoRouteHandler>(params));
  cf->add_handler(std::make_unique<reactive::RouteUpdateHandler>(
      "dymo.RouteUpdateHandler", params.route_lifetime));
  cf->add_handler(std::make_unique<RouteInvalidationHandler>(params));
  cf->add_handler(std::make_unique<RerrHandler>());

  cf->declare_events(
      /*required=*/{"RM_IN", "RERR_IN", ev::types::NO_ROUTE,
                    ev::types::ROUTE_UPDATE, ev::types::SEND_ROUTE_ERR,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{"RM_OUT", "RERR_OUT", ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_dymo(core::Manetkit& kit, DymoParams params) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol(
      "dymo", /*layer=*/20,
      [params](core::Manetkit& k) { return build_dymo_cf(k, params); },
      /*category=*/"reactive");
}

DymoState* dymo_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<DymoState*>(cf.state_component());
}

}  // namespace mk::proto
