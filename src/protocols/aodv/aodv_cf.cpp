#include "protocols/aodv/aodv_cf.hpp"

#include "core/attrs.hpp"
#include "core/soft_state.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "protocols/wire.hpp"
#include "util/assert.hpp"
#include "util/bytebuffer.hpp"

namespace mk::proto {

namespace {

using core::attrs::kUnicastTo;

AodvState& aodv_state_of(core::ProtocolContext& ctx) {
  auto* s = dynamic_cast<AodvState*>(ctx.state());
  MK_ASSERT(s != nullptr, "AODV CF has no AodvState S element");
  return *s;
}

pbb::Message build_rreq(AodvState& st, net::Addr self, net::Addr target,
                        const AodvParams& params) {
  pbb::Message m;
  m.type = wire::kMsgAodvRreq;
  m.originator = self;
  m.seqnum = st.bump_seq();
  m.has_hops = true;
  m.hop_limit = params.net_diameter;
  m.hop_count = 0;
  m.tlvs.push_back(pbb::Tlv::u32(wire::kTlvRreqId, st.next_rreq_id()));
  pbb::AddressBlock block;
  auto known = st.route_to(target);
  if (known && known->seq_valid) {
    block.add_with_u32(target, wire::kAtlvSeqnum, known->dest_seq);
  } else {
    block.addrs.push_back(target);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

pbb::Message build_rrep(net::Addr dest, std::uint16_t dest_seq,
                        net::Addr rreq_origin, std::uint8_t initial_hops,
                        const AodvParams& params) {
  pbb::Message m;
  m.type = wire::kMsgAodvRrep;
  m.originator = dest;
  m.seqnum = dest_seq;
  m.has_hops = true;
  m.hop_limit = params.net_diameter;
  m.hop_count = initial_hops;
  pbb::AddressBlock block;
  block.addrs.push_back(rreq_origin);
  m.addr_blocks.push_back(std::move(block));
  return m;
}

pbb::Message build_rerr(const reactive::Unreachable& unreachable) {
  pbb::Message m;
  m.type = wire::kMsgAodvRerr;
  m.has_hops = true;
  m.hop_limit = 1;  // RFC 3561: RERRs travel hop-by-hop via precursors
  m.hop_count = 0;
  pbb::AddressBlock block;
  for (const auto& [dest, seq] : unreachable) {
    block.add_with_u32(dest, wire::kAtlvSeqnum, seq);
  }
  m.addr_blocks.push_back(std::move(block));
  return m;
}

/// The AODV_OUT event type, resolved once on first use.
ev::EventTypeId aodv_out() {
  static const ev::EventTypeId id = ev::etype(ev::types::AODV_OUT);
  return id;
}

void emit(core::ProtocolContext& ctx, pbb::Message msg,
          net::Addr unicast_to = net::kNoAddr) {
  ev::Event out(aodv_out());
  out.set_msg(std::move(msg));
  if (unicast_to != net::kNoAddr) out.set_int(kUnicastTo, unicast_to);
  ctx.emit(std::move(out));
}

/// Relays `msg` one hop further; broadcast unless `unicast_to` names a next
/// hop. Copy-assigns into the recycled pool slot, whose warm buffers take
/// the copy without allocating.
void forward(core::ProtocolContext& ctx, const pbb::Message& msg,
             net::Addr unicast_to = net::kNoAddr) {
  ev::Event out(aodv_out());
  pbb::Message& fwd = out.acquire_msg();
  fwd = msg;
  fwd.hop_limit -= 1;
  fwd.hop_count += 1;
  if (unicast_to != net::kNoAddr) out.set_int(kUnicastTo, unicast_to);
  ctx.emit(std::move(out));
}

/// AODV's plug-in into the reactive skeleton: RREQs with an RREQ-id and the
/// last known destination seq, and hop-by-hop RERRs.
class AodvEmitter final : public reactive::Emitter {
 public:
  explicit AodvEmitter(AodvParams params) : Emitter("aodv"), params_(params) {}

  void send_rreq(core::ProtocolContext& ctx, net::Addr target) override {
    emit(ctx, build_rreq(aodv_state_of(ctx), ctx.self(), target, params_));
  }

  void send_rerr(core::ProtocolContext& ctx,
                 const reactive::Unreachable& lost) override {
    pbb::Message m = build_rerr(lost);
    if (rerr_out_ == nullptr) {
      rerr_out_ = &ctx.metrics().counter("aodv.rerr_out");
    }
    rerr_out_->inc();
    emit(ctx, std::move(m));
  }

 private:
  AodvParams params_;
  obs::Counter* rerr_out_ = nullptr;  // cached "aodv.rerr_out"
};

/// RREQ / RREP / RERR processing, demultiplexed on the PacketBB type.
class AodvHandler final : public core::EventHandler {
 public:
  explicit AodvHandler(AodvParams params)
      : core::EventHandler("aodv.AodvHandler", {ev::types::AODV_IN}),
        params_(params) {
    set_instance_name("AodvHandler");
  }

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override {
    if (msgs_in_ == nullptr) {
      msgs_in_ = &ctx.metrics().counter("aodv.msgs_in");
    }
    msgs_in_->inc();
    if (!event.has_msg()) return;
    switch (event.msg()->type) {
      case wire::kMsgAodvRreq:
        on_rreq(event, ctx);
        break;
      case wire::kMsgAodvRrep:
        on_rrep(event, ctx);
        break;
      case wire::kMsgAodvRerr:
        on_rerr(event, ctx);
        break;
      default:
        break;
    }
  }

 private:
  obs::Counter* msgs_in_ = nullptr;  // cached: interned once, then atomic inc
  core::SoftExpiry* soft_ = nullptr;  // cached per composition epoch

  core::SoftExpiry* soft(core::ProtocolContext& ctx) {
    if (soft_ == nullptr) soft_ = core::soft_expiry_of(ctx);
    return soft_;
  }

  void learn(core::ProtocolContext& ctx, const pbb::Message& msg,
             net::Addr from) {
    reactive::accept(ctx, soft(ctx), *msg.originator, *msg.seqnum, from,
                     static_cast<std::uint8_t>(msg.hop_count + 1),
                     params_.active_route_timeout);
  }

  void on_rreq(const ev::Event& event, core::ProtocolContext& ctx) {
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
    if (*msg.originator == ctx.self()) return;
    const auto* id_tlv = msg.find_tlv(wire::kTlvRreqId);
    if (id_tlv == nullptr || msg.addr_blocks.empty() ||
        msg.addr_blocks[0].addrs.empty()) {
      return;
    }
    AodvState& st = aodv_state_of(ctx);

    // Reverse route to the originator.
    learn(ctx, msg, event.from);

    // Every sighting refreshes the tuple's holding time.
    if (reactive::seen_before(ctx, soft(ctx), *msg.originator,
                              id_tlv->as_u32())) {
      return;
    }

    net::Addr target = msg.addr_blocks[0].addrs[0];
    const auto* want_seq = msg.addr_blocks[0].tlv_for(0, wire::kAtlvSeqnum);

    if (target == ctx.self()) {
      // RFC 3561 §6.6.1: our seq must be at least the requested one.
      if (want_seq != nullptr) {
        auto wanted = static_cast<std::uint16_t>(want_seq->as_u32());
        while (static_cast<std::int16_t>(st.own_seq() - wanted) < 0) {
          st.bump_seq();
        }
      }
      st.bump_seq();
      emit(ctx, build_rrep(ctx.self(), st.own_seq(), *msg.originator, 0,
                           params_),
           event.from);
      return;
    }

    // Intermediate reply: answer from our own table when fresh enough.
    auto route = st.route_to(target);
    if (route && route->valid && route->seq_valid && want_seq != nullptr &&
        static_cast<std::int16_t>(
            route->dest_seq -
            static_cast<std::uint16_t>(want_seq->as_u32())) >= 0) {
      st.add_precursor(target, event.from);
      emit(ctx, build_rrep(target, route->dest_seq, *msg.originator,
                           route->hops, params_),
           event.from);
      return;
    }

    if (msg.hop_limit <= 1) return;
    forward(ctx, msg);
  }

  void on_rrep(const ev::Event& event, core::ProtocolContext& ctx) {
    const pbb::Message& msg = *event.msg();
    if (!msg.originator || !msg.seqnum || !msg.has_hops) return;
    if (msg.addr_blocks.empty() || msg.addr_blocks[0].addrs.empty()) return;

    // Forward route to the destination that answered.
    learn(ctx, msg, event.from);

    net::Addr rreq_origin = msg.addr_blocks[0].addrs[0];
    if (rreq_origin == ctx.self()) return;  // discovery complete

    AodvState& st = aodv_state_of(ctx);
    auto reverse = st.route_to(rreq_origin);
    if (!reverse || !reverse->valid) return;
    st.add_precursor(*msg.originator, reverse->next_hop);
    st.add_precursor(rreq_origin, event.from);

    if (msg.hop_limit <= 1) return;
    forward(ctx, msg, reverse->next_hop);
  }

  void on_rerr(const ev::Event& event, core::ProtocolContext& ctx) {
    reactive::Unreachable propagate =
        reactive::invalidate_reported(ctx, *event.msg(), event.from);
    if (!propagate.empty()) emit(ctx, build_rerr(propagate));
  }

  AodvParams params_;
};

/// The §4.3 piggybacking example: advertise a few routing-table entries in
/// each HELLO so neighbours learn routes without discovery. A bridge
/// component ties the provider/observer lifetime to the AODV CF.
class PiggybackBridge final : public oc::Component {
 public:
  static constexpr std::size_t kMaxAdvertised = 5;

  PiggybackBridge(core::ManetProtocolCf& aodv, NeighborTable& table,
                  AodvParams params)
      : oc::Component("aodv.PiggybackBridge"),
        alive_(std::make_shared<bool>(true)) {
    set_instance_name("PiggybackBridge");
    auto alive = alive_;
    core::ManetProtocolCf* proto = &aodv;

    table.add_piggyback_provider([alive, proto]() -> std::optional<pbb::Tlv> {
      if (!*alive) return std::nullopt;
      auto* st = dynamic_cast<AodvState*>(proto->state_component());
      if (st == nullptr || st->route_count() == 0) return std::nullopt;
      ByteWriter w;
      std::size_t n = 0;
      for (const auto& [dest, r] : st->all_routes()) {
        if (n >= kMaxAdvertised) break;
        if (!r.valid) continue;
        w.put_u32(dest);
        w.put_u32(r.next_hop);  // split horizon: receivers skip routes via themselves
        w.put_u16(r.dest_seq);
        w.put_u8(r.hops);
        ++n;
      }
      if (n == 0) return std::nullopt;
      return pbb::Tlv{wire::kTlvPiggyback, w.take()};
    });

    AodvParams params_copy = params;
    table.add_piggyback_observer(
        [alive, proto, params_copy](net::Addr from, const pbb::Tlv& tlv) {
          if (!*alive || tlv.type != wire::kTlvPiggyback) return;
          auto* st = dynamic_cast<AodvState*>(proto->state_component());
          if (st == nullptr) return;
          auto& ctx = proto->context();
          auto* soft = core::soft_expiry_of(ctx);
          ByteReader r(tlv.value);
          try {
            while (r.remaining() >= 11) {
              net::Addr dest = r.get_u32();
              net::Addr via = r.get_u32();
              std::uint16_t seq = r.get_u16();
              std::uint8_t hops = r.get_u8();
              if (dest == ctx.self()) continue;
              // Split horizon: the advertised route runs through us — using
              // it back through the advertiser would form a 2-node loop.
              if (via == ctx.self()) continue;
              const auto learned =
                  st->learn(dest, seq, true, from,
                            static_cast<std::uint8_t>(hops + 1), ctx.now(),
                            params_copy.active_route_timeout);
              if (learned.changed) {
                reactive::install_route(ctx, dest, from,
                                        static_cast<std::uint8_t>(hops + 1));
              }
              if (soft != nullptr) {
                soft->touch_at(aodv_sets::kRoute, dest, learned.expires);
              }
            }
          } catch (const BufferUnderflow&) {
            // malformed advert from a buggy neighbour: ignore
          }
        });
  }

  ~PiggybackBridge() override { *alive_ = false; }

 private:
  std::shared_ptr<bool> alive_;
};

}  // namespace

std::unique_ptr<core::ManetProtocolCf> build_aodv_cf(core::Manetkit& kit,
                                                     AodvParams params) {
  core::ManetProtocolCf* neighbor = kit.deploy("neighbor");
  kit.system().ensure_netlink();
  kit.system().register_message(wire::kMsgAodvRreq, "AODV");
  kit.system().register_message(wire::kMsgAodvRrep, "AODV");
  kit.system().register_message(wire::kMsgAodvRerr, "AODV");

  auto cf = std::make_unique<core::ManetProtocolCf>(
      kit.kernel(), "aodv", kit.scheduler(), kit.self(),
      &kit.system().sys_state());

  cf->set_state(std::make_unique<AodvState>());

  // Per-entry soft-state expiry (set ids fixed by definition order — see
  // aodv_sets). Routes get RFC 3561's two-phase treatment: the route loss
  // fn invalidates a lapsed valid entry and re-arms it for DELETE_PERIOD
  // (seqnum memory), then lets the second lapse delete it.
  auto soft = std::make_unique<core::SoftExpiry>();
  auto emitter = std::make_shared<AodvEmitter>(params);
  reactive::define_sets(
      *soft, *cf, emitter, params.active_route_timeout, params.rreq_wait,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        auto dest = static_cast<net::Addr>(key);
        bool invalidated = false;
        auto next = aodv_state_of(ctx).expire_one(dest, ctx.now(), invalidated);
        if (invalidated) reactive::remove_route(ctx, dest);
        if (next) {
          if (auto* s = core::soft_expiry_of(ctx)) {
            s->touch_at(aodv_sets::kRoute, dest, *next);
          }
        }
      });
  reactive::define_seen_set(*soft, *cf, "aodv.rreq_id", params.rreq_id_hold);
  cf->add_source(std::move(soft));

  cf->add_handler(std::make_unique<AodvHandler>(params));
  cf->add_handler(std::make_unique<reactive::NoRouteHandler>(
      "aodv.NoRouteHandler", params.rreq_wait, emitter));
  cf->add_handler(std::make_unique<reactive::RouteUpdateHandler>(
      "aodv.RouteUpdateHandler", params.active_route_timeout));
  cf->add_handler(std::make_unique<reactive::InvalidationHandler>(
      "aodv.InvalidationHandler", "InvalidationHandler", emitter));

  if (params.piggyback_routes) {
    if (auto* table =
            dynamic_cast<NeighborTable*>(neighbor->state_component())) {
      cf->insert(std::make_unique<PiggybackBridge>(*cf, *table, params));
    }
  }

  cf->declare_events(
      /*required=*/{ev::types::AODV_IN, ev::types::NO_ROUTE,
                    ev::types::ROUTE_UPDATE, ev::types::SEND_ROUTE_ERR,
                    ev::types::NHOOD_CHANGE},
      /*provided=*/{ev::types::AODV_OUT, ev::types::ROUTE_FOUND},
      /*exclusive=*/{ev::types::NO_ROUTE});
  return cf;
}

void register_aodv(core::Manetkit& kit, AodvParams params) {
  if (!kit.has_builder("neighbor")) register_neighbor(kit);
  kit.register_protocol(
      "aodv", /*layer=*/20,
      [params](core::Manetkit& k) { return build_aodv_cf(k, params); },
      /*category=*/"reactive");
}

AodvState* aodv_state(core::ManetProtocolCf& cf) {
  return dynamic_cast<AodvState*>(cf.state_component());
}

}  // namespace mk::proto
