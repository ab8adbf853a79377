// The reactive skeleton shared by DYMO and AODV (and, through DYMO, by the
// zone hybrid): kernel-route sync and ROUTE_FOUND, the learn step's accept,
// the pending-discovery table with its "<tag>.pending" retry soft-state set
// (next to "<tag>.route"), and the NO_ROUTE, ROUTE_UPDATE and link-break
// invalidation handlers.
//
// A protocol plugs in two things: its S element, a RouteTable over its own
// route type (acceptance, invalidation and sequence-number rules), and an
// Emitter that builds its RREQs and RERRs. The shared code never asks which
// protocol it serves. Handlers take further plug-ins by override, as the
// zone hybrid's try_local_knowledge() and multipath DYMO's fail_via() do.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cfs.hpp"
#include "core/ifaces.hpp"
#include "core/manet_protocol.hpp"
#include "core/soft_state.hpp"
#include "core/state_codec.hpp"
#include "net/address.hpp"
#include "obs/metrics.hpp"
#include "opencom/component.hpp"
#include "packetbb/packetbb.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace mk::proto::reactive {

/// Soft-state set ids every reactive CF defines first (see define_sets),
/// then its seen set (see define_seen_set).
inline constexpr core::ISoftExpiry::SetId kRouteSet = 0;
inline constexpr core::ISoftExpiry::SetId kPendingSet = 1;
inline constexpr core::ISoftExpiry::SetId kSeenSet = 2;

/// (destination, sequence number) pairs reported unreachable in a RERR.
using Unreachable = std::vector<std::pair<net::Addr, std::uint16_t>>;

/// Duplicate suppression for flooded requests: the (originator, id) tuples
/// seen recently, each with the time it was last seen, in ascending
/// (originator, id) order. DYMO keys it by RM sequence number, AODV by RREQ
/// id. A soft-state key names a tuple by its originator above the id's low
/// `id_bits` bits.
class SeenSet {
 public:
  explicit SeenSet(unsigned id_bits) : id_bits_(id_bits) {}

  /// Records a sighting at `now`; true if the tuple was already there.
  bool check(net::Addr origin, std::uint32_t id, TimePoint now) {
    auto [it, inserted] = seen_.try_emplace(pack(origin, id), now);
    if (!inserted) it->second = now;
    return !inserted;
  }
  void insert(net::Addr origin, std::uint32_t id, TimePoint seen) {
    seen_[pack(origin, id)] = seen;
  }
  std::uint64_t soft_key(net::Addr origin, std::uint32_t id) const {
    return (std::uint64_t{origin} << id_bits_) | (id & low_mask());
  }
  /// Removes the lowest-id tuple a soft-state key names; true if one was
  /// there.
  bool drop(std::uint64_t soft_key);
  /// Drops the tuples last seen more than `hold` before `now`.
  void expire(TimePoint now, Duration hold);
  /// Soft-state keys of every tuple (expiry re-seeding).
  std::vector<std::uint64_t> soft_keys() const;
  /// Visits (originator, id, last seen) in ascending (originator, id) order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [packed, seen] : seen_) {
      fn(static_cast<net::Addr>(packed >> 32),
         static_cast<std::uint32_t>(packed), seen);
    }
  }
  std::size_t size() const { return seen_.size(); }
  void clear() { seen_.clear(); }

 private:
  static std::uint64_t pack(net::Addr origin, std::uint32_t id) {
    return (std::uint64_t{origin} << 32) | id;
  }
  std::uint32_t low_mask() const {
    return id_bits_ >= 32 ? ~std::uint32_t{0}
                          : (std::uint32_t{1} << id_bits_) - 1;
  }

  unsigned id_bits_;
  FlatMap<std::uint64_t, TimePoint> seen_;
};

/// Base of a reactive S element: the route-table operations the skeleton
/// drives, plus the pending-discovery table and the seen set it owns
/// outright.
class ReactiveState : public oc::Component,
                      public core::IState,
                      public core::IStateCodec {
 public:
  // -- route table (each protocol's own rules) -------------------------------
  /// What one offer of route information did: whether the route changed,
  /// and the entry's deadline afterwards (the entry always exists then).
  struct Learned {
    bool changed = false;
    TimePoint expires{};
  };
  /// Applies learned route information with one table lookup. A same-info
  /// offer may still extend the lifetime.
  virtual Learned learn(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
                        std::uint8_t hops, TimePoint now,
                        Duration lifetime) = 0;
  /// learn(), reporting only whether the route changed.
  bool update_route(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
                    std::uint8_t hops, TimePoint now, Duration lifetime) {
    return learn(dest, seq, next_hop, hops, now, lifetime).changed;
  }
  /// Extends a valid route's lifetime. Returns the entry's deadline, valid
  /// or not; nullopt if there is no entry.
  virtual std::optional<TimePoint> extend_lifetime(net::Addr dest,
                                                   TimePoint now,
                                                   Duration lifetime) = 0;
  virtual bool has_valid_route(net::Addr dest) const = 0;
  /// Next hop of the valid route to `dest`; kNoAddr if there is none.
  virtual net::Addr valid_next_hop(net::Addr dest) const = 0;
  /// Invalidates every valid route through `next_hop`.
  virtual Unreachable invalidate_via(net::Addr next_hop) = 0;
  /// Invalidates one destination; its reported seq if it was valid.
  virtual std::optional<std::uint16_t> invalidate(net::Addr dest) = 0;
  /// Every route-table destination (expiry re-seeding).
  virtual std::vector<net::Addr> route_dests() const = 0;

  // -- pending discoveries ---------------------------------------------------
  std::uint8_t max_tries() const { return max_tries_; }
  bool has_pending(net::Addr dest) const { return pending_.contains(dest); }
  void start_pending(net::Addr dest, TimePoint now, Duration wait) {
    pending_[dest] = Pending{1, now + wait, wait};
  }
  /// Destinations whose retry timer elapsed; bumps their try-counter and
  /// doubles the backoff. Entries past max_tries() are dropped and reported
  /// in `gave_up`.
  std::vector<net::Addr> due_retries(TimePoint now,
                                     std::vector<net::Addr>& gave_up);
  /// Advances one pending discovery whose retry deadline lapsed: bumps the
  /// try-counter, doubles the backoff and returns the new retry deadline.
  /// Returns nullopt if the discovery is absent or just gave up (dropped).
  std::optional<TimePoint> retry_pending(net::Addr dest, TimePoint now);
  void finish_pending(net::Addr dest) { pending_.erase(dest); }
  /// Destinations with discoveries in flight (expiry re-seeding).
  std::vector<net::Addr> pending_dests() const;
  std::size_t pending_count() const { return pending_.size(); }

  // -- seen set (flood duplicate suppression) ----------------------------------
  SeenSet& seen() { return seen_; }
  const SeenSet& seen() const { return seen_; }

 protected:
  /// `seen_id_bits`: how many low id bits the seen set's soft keys carry.
  ReactiveState(std::string type_name, std::uint8_t max_tries,
                unsigned seen_id_bits);

  /// Pending discoveries are transient: codecs never carry them, and
  /// reset_state() clears them.
  void clear_pending() { pending_.clear(); }

 private:
  struct Pending {
    std::uint8_t tries = 1;
    TimePoint next_retry{};
    Duration backoff{};
  };
  std::uint8_t max_tries_;
  FlatMap<net::Addr, Pending> pending_;
  SeenSet seen_;
};

/// A ReactiveState over a destination-keyed table of `Route`s. A Route has
/// `valid` and `expires`, plus its protocol's rules: `via()` (its next hop,
/// kNoAddr if none) and `invalidate()` (marks it invalid, returns the seq to
/// report). Only update_route() is left to the protocol.
template <class Route>
class RouteTable : public ReactiveState {
 public:
  std::optional<Route> route_to(net::Addr dest) const {
    auto it = routes_.find(dest);
    if (it == routes_.end()) return std::nullopt;
    return it->second;
  }
  std::size_t route_count() const { return routes_.size(); }
  const FlatMap<net::Addr, Route>& all_routes() const { return routes_; }

  std::optional<TimePoint> extend_lifetime(net::Addr dest, TimePoint now,
                                           Duration lifetime) override {
    auto it = routes_.find(dest);
    if (it == routes_.end()) return std::nullopt;
    if (it->second.valid) it->second.expires = now + lifetime;
    return it->second.expires;
  }
  bool has_valid_route(net::Addr dest) const override {
    auto it = routes_.find(dest);
    return it != routes_.end() && it->second.valid;
  }
  net::Addr valid_next_hop(net::Addr dest) const override {
    auto it = routes_.find(dest);
    return it != routes_.end() && it->second.valid ? it->second.via()
                                                   : net::kNoAddr;
  }
  Unreachable invalidate_via(net::Addr next_hop) override {
    Unreachable out;
    for (auto& [dest, r] : routes_) {
      if (r.valid && r.via() == next_hop) {
        out.emplace_back(dest, r.invalidate());
      }
    }
    return out;
  }
  std::optional<std::uint16_t> invalidate(net::Addr dest) override {
    auto it = routes_.find(dest);
    if (it == routes_.end() || !it->second.valid) return std::nullopt;
    return it->second.invalidate();
  }
  std::vector<net::Addr> route_dests() const override {
    std::vector<net::Addr> out;
    out.reserve(routes_.size());
    for (const auto& [dest, _] : routes_) out.push_back(dest);
    return out;
  }

 protected:
  using ReactiveState::ReactiveState;

  FlatMap<net::Addr, Route> routes_;
};

/// The protocol's RREQ/RERR plug-in: the only place its wire format enters
/// the skeleton.
class Emitter {
 public:
  /// `tag` prefixes the protocol's counter, soft-set and log names.
  explicit Emitter(std::string tag) : tag_(std::move(tag)) {}
  virtual ~Emitter() = default;
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  const std::string& tag() const { return tag_; }

  /// Floods a route request for `target` (first try and every retry).
  virtual void send_rreq(core::ProtocolContext& ctx, net::Addr target) = 0;
  /// Reports destinations lost through a broken link; `lost` is non-empty.
  virtual void send_rerr(core::ProtocolContext& ctx,
                         const Unreachable& lost) = 0;

 private:
  std::string tag_;
};

// -- kernel sync -------------------------------------------------------------
void install_route(core::ProtocolContext& ctx, net::Addr dest,
                   net::Addr next_hop, std::uint8_t hops);
void remove_route(core::ProtocolContext& ctx, net::Addr dest);
void emit_route_found(core::ProtocolContext& ctx, net::Addr dest);

// -- discovery ---------------------------------------------------------------
/// Ends the discovery for `dest` (route found) and disarms its retry.
void end_discovery(ReactiveState& st, core::SoftExpiry* soft, net::Addr dest);

/// The learn step's accept: offers route information for `dest` via
/// `next_hop` (one route-table lookup). On a change it installs the kernel
/// route, ends any discovery for `dest` and emits ROUTE_FOUND; either way it
/// re-arms the route's expiry at its (possibly extended) deadline.
void accept(core::ProtocolContext& ctx, core::SoftExpiry* soft,
            net::Addr dest, std::uint16_t seq, net::Addr next_hop,
            std::uint8_t hops, Duration lifetime);

/// RERR receipt: invalidates every destination listed in `msg` whose valid
/// route runs through `from` and removes its kernel route. Returns what
/// became unreachable, for propagation.
Unreachable invalidate_reported(core::ProtocolContext& ctx,
                                const pbb::Message& msg, net::Addr from);

/// Records a flooded request's (originator, id) in the S element's seen set
/// and refreshes its holding time; true if it was already there.
bool seen_before(core::ProtocolContext& ctx, core::SoftExpiry* soft,
                 net::Addr origin, std::uint32_t id);

/// Defines the "<tag>.route" and "<tag>.pending" sets, which must be the
/// first two sets of `soft` (ids kRouteSet and kPendingSet). A lapsed route
/// runs `on_route_lapse`; a lapsed discovery re-sends its RREQ with doubled
/// backoff until the S element's max_tries(). Both re-seed from the S
/// element of `cf`.
void define_sets(core::SoftExpiry& soft, core::ManetProtocolCf& cf,
                 std::shared_ptr<Emitter> emitter, Duration route_hold,
                 Duration rreq_wait, core::ISoftExpiry::LossFn on_route_lapse);

/// Defines set `name` (id kSeenSet, right after define_sets): each seen-set
/// tuple lapses `hold` after it was last seen. Re-seeds from the S element
/// of `cf`.
void define_seen_set(core::SoftExpiry& soft, core::ManetProtocolCf& cf,
                     std::string name, Duration hold);

// -- handlers ----------------------------------------------------------------

/// NO_ROUTE from NetLink: answers from a valid route or from local
/// knowledge, else starts (or joins) a discovery.
class NoRouteHandler : public core::EventHandler {
 public:
  NoRouteHandler(std::string type_name, Duration rreq_wait,
                 std::shared_ptr<Emitter> emitter);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  /// Returns true if a route to `dest` was produced from local knowledge
  /// (and ROUTE_FOUND emitted); false to fall through to discovery.
  virtual bool try_local_knowledge(net::Addr dest, core::ProtocolContext& ctx);

 private:
  Duration rreq_wait_;
  std::shared_ptr<Emitter> emitter_;
  core::SoftExpiry* soft_ = nullptr;     // cached per composition epoch
  obs::Counter* discoveries_ = nullptr;  // cached "<tag>.discoveries"
};

/// ROUTE_UPDATE from NetLink: data-plane use extends the route's lifetime.
class RouteUpdateHandler final : public core::EventHandler {
 public:
  RouteUpdateHandler(std::string type_name, Duration lifetime);
  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 private:
  Duration lifetime_;
  core::SoftExpiry* soft_ = nullptr;  // cached per composition epoch
};

/// SEND_ROUTE_ERR and NHOOD_CHANGE(down): invalidates routes through the
/// broken hop and reports them in a RERR.
class InvalidationHandler : public core::EventHandler {
 public:
  InvalidationHandler(std::string type_name, std::string instance_name,
                      std::shared_ptr<Emitter> emitter);

  void handle(const ev::Event& event, core::ProtocolContext& ctx) override;

 protected:
  /// Invalidates paths through `hop` and removes their kernel routes;
  /// returns what became unreachable.
  virtual Unreachable fail_via(net::Addr hop, core::ProtocolContext& ctx);

 private:
  std::shared_ptr<Emitter> emitter_;
};

}  // namespace mk::proto::reactive
