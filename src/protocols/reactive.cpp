#include "protocols/reactive.hpp"

#include "core/attrs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto::reactive {

// ------------------------------------------------------------ ReactiveState

// ------------------------------------------------------------------ SeenSet

bool SeenSet::drop(std::uint64_t soft_key) {
  const auto origin = static_cast<net::Addr>(soft_key >> id_bits_);
  const auto low = static_cast<std::uint32_t>(soft_key) & low_mask();
  // Every id whose low bits read `low` is at least `low`, so the scan can
  // start at (origin, low): for ids within id_bits that is the tuple itself.
  for (auto it = seen_.lower_bound(pack(origin, low));
       it != seen_.end() && (it->first >> 32) == origin; ++it) {
    if ((static_cast<std::uint32_t>(it->first) & low_mask()) == low) {
      seen_.erase(it);
      return true;
    }
  }
  return false;
}

void SeenSet::expire(TimePoint now, Duration hold) {
  seen_.erase_if([&](const auto& e) { return now - e.second > hold; });
}

std::vector<std::uint64_t> SeenSet::soft_keys() const {
  std::vector<std::uint64_t> out;
  out.reserve(seen_.size());
  for_each([&](net::Addr origin, std::uint32_t id, TimePoint) {
    out.push_back(soft_key(origin, id));
  });
  return out;
}

// ------------------------------------------------------------ ReactiveState

ReactiveState::ReactiveState(std::string type_name, std::uint8_t max_tries,
                             unsigned seen_id_bits)
    : oc::Component(std::move(type_name)),
      max_tries_(max_tries),
      seen_(seen_id_bits) {
  set_instance_name("State");
  provide("IState", static_cast<core::IState*>(this));
  provide("IStateCodec", static_cast<core::IStateCodec*>(this));
}

std::vector<net::Addr> ReactiveState::due_retries(
    TimePoint now, std::vector<net::Addr>& gave_up) {
  std::vector<net::Addr> retry;
  for (net::Addr dest : pending_dests()) {
    if (pending_.find(dest)->second.next_retry > now) continue;
    if (retry_pending(dest, now)) {
      retry.push_back(dest);
    } else {
      gave_up.push_back(dest);
    }
  }
  return retry;
}

std::optional<TimePoint> ReactiveState::retry_pending(net::Addr dest,
                                                      TimePoint now) {
  auto it = pending_.find(dest);
  if (it == pending_.end()) return std::nullopt;
  Pending& p = it->second;
  if (p.tries >= max_tries_) {
    pending_.erase(it);
    return std::nullopt;
  }
  ++p.tries;
  p.backoff = p.backoff * 2;  // binary exponential backoff
  p.next_retry = now + p.backoff;
  return p.next_retry;
}

std::vector<net::Addr> ReactiveState::pending_dests() const {
  std::vector<net::Addr> out;
  out.reserve(pending_.size());
  for (const auto& [dest, _] : pending_) out.push_back(dest);
  return out;
}

// ------------------------------------------------------------------ helpers

namespace {

ReactiveState& state_of(core::ProtocolContext& ctx) {
  auto* s = dynamic_cast<ReactiveState*>(ctx.state());
  MK_ASSERT(s != nullptr, "reactive CF has no ReactiveState S element");
  return *s;
}

}  // namespace

void install_route(core::ProtocolContext& ctx, net::Addr dest,
                   net::Addr next_hop, std::uint8_t hops) {
  if (ctx.sys() == nullptr) return;
  net::RouteEntry entry;
  entry.dest = dest;
  entry.next_hop = next_hop;
  entry.metric = hops;
  entry.installed_at = ctx.now();
  ctx.sys()->kernel_table().set_route(entry);
}

void remove_route(core::ProtocolContext& ctx, net::Addr dest) {
  if (ctx.sys() != nullptr) ctx.sys()->kernel_table().remove_route(dest);
}

void emit_route_found(core::ProtocolContext& ctx, net::Addr dest) {
  static const ev::EventTypeId kRouteFound =
      ev::etype(ev::types::ROUTE_FOUND);
  ev::Event e(kRouteFound);
  e.set_int(core::attrs::kDest, dest);
  ctx.emit(std::move(e));
}

void end_discovery(ReactiveState& st, core::SoftExpiry* soft, net::Addr dest) {
  st.finish_pending(dest);
  if (soft != nullptr) soft->drop(kPendingSet, dest);
}

void accept(core::ProtocolContext& ctx, core::SoftExpiry* soft,
            net::Addr dest, std::uint16_t seq, net::Addr next_hop,
            std::uint8_t hops, Duration lifetime) {
  if (dest == ctx.self()) return;
  ReactiveState& st = state_of(ctx);
  const auto learned = st.learn(dest, seq, next_hop, hops, ctx.now(), lifetime);
  if (learned.changed) {
    install_route(ctx, dest, next_hop, hops);
    end_discovery(st, soft, dest);
    emit_route_found(ctx, dest);
  }
  if (soft != nullptr) soft->touch_at(kRouteSet, dest, learned.expires);
}

bool seen_before(core::ProtocolContext& ctx, core::SoftExpiry* soft,
                 net::Addr origin, std::uint32_t id) {
  SeenSet& seen = state_of(ctx).seen();
  const bool dup = seen.check(origin, id, ctx.now());
  if (soft != nullptr) soft->touch(kSeenSet, seen.soft_key(origin, id));
  return dup;
}

Unreachable invalidate_reported(core::ProtocolContext& ctx,
                                const pbb::Message& msg, net::Addr from) {
  ReactiveState& st = state_of(ctx);
  Unreachable out;
  for (const auto& block : msg.addr_blocks) {
    for (net::Addr dest : block.addrs) {
      if (st.valid_next_hop(dest) != from) continue;
      if (auto seq = st.invalidate(dest)) {
        remove_route(ctx, dest);
        out.emplace_back(dest, *seq);
      }
    }
  }
  return out;
}

void define_sets(core::SoftExpiry& soft, core::ManetProtocolCf& cf,
                 std::shared_ptr<Emitter> emitter, Duration route_hold,
                 Duration rreq_wait, core::ISoftExpiry::LossFn on_route_lapse) {
  core::ManetProtocolCf* raw = &cf;
  auto state = [raw] {
    return dynamic_cast<ReactiveState*>(raw->state_component());
  };
  auto route_set = soft.define_set(
      emitter->tag() + ".route", route_hold, std::move(on_route_lapse),
      [state] {
        std::vector<std::uint64_t> keys;
        if (ReactiveState* st = state()) {
          for (net::Addr dest : st->route_dests()) keys.push_back(dest);
        }
        return keys;
      });
  auto pending_set = soft.define_set(
      emitter->tag() + ".pending", rreq_wait,
      [emitter](std::uint64_t key, core::ProtocolContext& ctx) {
        ReactiveState& st = state_of(ctx);
        auto dest = static_cast<net::Addr>(key);
        bool had = st.has_pending(dest);
        if (auto next = st.retry_pending(dest, ctx.now())) {
          emitter->send_rreq(ctx, dest);
          if (auto* s = core::soft_expiry_of(ctx)) {
            s->touch_at(kPendingSet, dest, *next);
          }
        } else if (had) {
          MK_DEBUG(emitter->tag(), "discovery for ", pbb::addr_to_string(dest),
                   " gave up after ", int{st.max_tries()}, " tries");
        }
      },
      [state] {
        std::vector<std::uint64_t> keys;
        if (ReactiveState* st = state()) {
          for (net::Addr dest : st->pending_dests()) keys.push_back(dest);
        }
        return keys;
      });
  MK_ASSERT(route_set == kRouteSet && pending_set == kPendingSet,
            "reactive soft-state sets must be defined first");
}

void define_seen_set(core::SoftExpiry& soft, core::ManetProtocolCf& cf,
                     std::string name, Duration hold) {
  core::ManetProtocolCf* raw = &cf;
  auto seen_set = soft.define_set(
      std::move(name), hold,
      [](std::uint64_t key, core::ProtocolContext& ctx) {
        state_of(ctx).seen().drop(key);
      },
      [raw] {
        auto* st = dynamic_cast<ReactiveState*>(raw->state_component());
        return st != nullptr ? st->seen().soft_keys()
                             : std::vector<std::uint64_t>{};
      });
  MK_ASSERT(seen_set == kSeenSet, "the seen set follows the reactive sets");
}

// ----------------------------------------------------------------- handlers

NoRouteHandler::NoRouteHandler(std::string type_name, Duration rreq_wait,
                               std::shared_ptr<Emitter> emitter)
    : core::EventHandler(std::move(type_name), {ev::types::NO_ROUTE}),
      rreq_wait_(rreq_wait),
      emitter_(std::move(emitter)) {
  set_instance_name("NoRouteHandler");
}

bool NoRouteHandler::try_local_knowledge(net::Addr, core::ProtocolContext&) {
  return false;
}

void NoRouteHandler::handle(const ev::Event& event,
                            core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.get_int(core::attrs::kDest));
  if (dest == net::kNoAddr) return;
  ReactiveState& st = state_of(ctx);
  if (st.has_valid_route(dest)) {
    // Route already known (e.g. learned since the packet was buffered).
    emit_route_found(ctx, dest);
    return;
  }
  if (try_local_knowledge(dest, ctx)) return;
  if (st.has_pending(dest)) return;  // discovery already in flight
  st.start_pending(dest, ctx.now(), rreq_wait_);
  if (soft_ == nullptr) soft_ = core::soft_expiry_of(ctx);
  if (soft_ != nullptr) {
    soft_->touch_at(kPendingSet, dest, ctx.now() + rreq_wait_);
  }
  if (discoveries_ == nullptr) {
    discoveries_ = &ctx.metrics().counter(emitter_->tag() + ".discoveries");
  }
  discoveries_->inc();
  emitter_->send_rreq(ctx, dest);
}

RouteUpdateHandler::RouteUpdateHandler(std::string type_name,
                                       Duration lifetime)
    : core::EventHandler(std::move(type_name), {ev::types::ROUTE_UPDATE}),
      lifetime_(lifetime) {
  set_instance_name("RouteUpdateHandler");
}

void RouteUpdateHandler::handle(const ev::Event& event,
                                core::ProtocolContext& ctx) {
  auto dest = static_cast<net::Addr>(event.get_int(core::attrs::kDest));
  if (auto deadline = state_of(ctx).extend_lifetime(dest, ctx.now(),
                                                     lifetime_)) {
    if (soft_ == nullptr) soft_ = core::soft_expiry_of(ctx);
    if (soft_ != nullptr) soft_->touch_at(kRouteSet, dest, *deadline);
  }
}

InvalidationHandler::InvalidationHandler(std::string type_name,
                                         std::string instance_name,
                                         std::shared_ptr<Emitter> emitter)
    : core::EventHandler(std::move(type_name),
                         {ev::types::SEND_ROUTE_ERR, ev::types::NHOOD_CHANGE}),
      emitter_(std::move(emitter)) {
  set_instance_name(std::move(instance_name));
}

Unreachable InvalidationHandler::fail_via(net::Addr hop,
                                          core::ProtocolContext& ctx) {
  Unreachable lost = state_of(ctx).invalidate_via(hop);
  for (const auto& [dest, _] : lost) remove_route(ctx, dest);
  return lost;
}

void InvalidationHandler::handle(const ev::Event& event,
                                 core::ProtocolContext& ctx) {
  net::Addr hop = net::kNoAddr;
  if (event.type() == ev::etype(ev::types::SEND_ROUTE_ERR)) {
    hop = static_cast<net::Addr>(event.get_int(core::attrs::kNextHop));
  } else {  // NHOOD_CHANGE
    if (event.get_int(core::attrs::kUp, 1) != 0) return;  // breaks only
    hop = static_cast<net::Addr>(event.get_int(core::attrs::kNeighbor));
  }
  if (hop == net::kNoAddr) return;
  Unreachable lost = fail_via(hop, ctx);
  if (!lost.empty()) emitter_->send_rerr(ctx, lost);
}

}  // namespace mk::proto::reactive
