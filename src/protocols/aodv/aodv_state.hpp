// S element of the AODV CF (RFC 3561 core): routing table with destination
// sequence numbers and precursor lists. The pending-discovery table and the
// RREQ-ID duplicate cache (the seen set, keyed by RREQ id) come from the
// reactive skeleton's base.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "protocols/reactive.hpp"
#include "util/time.hpp"

namespace mk::proto {

struct AodvRoute {
  net::Addr dest = net::kNoAddr;
  net::Addr next_hop = net::kNoAddr;
  std::uint16_t dest_seq = 0;
  bool seq_valid = false;
  std::uint8_t hops = 0;
  bool valid = true;
  TimePoint expires{};
  std::set<net::Addr> precursors;

  net::Addr via() const { return next_hop; }
  /// RFC 3561 §6.11: invalidation increments dest_seq, which is reported.
  std::uint16_t invalidate() {
    valid = false;
    return ++dest_seq;
  }
};

/// How long an expired/invalidated entry is retained (sequence-number
/// memory) before deletion — RFC 3561's DELETE_PERIOD. Forgetting too early
/// lets stale same-sequence adverts re-form loops.
inline constexpr Duration kAodvDeletePeriod = sec(15);

class AodvState : public reactive::RouteTable<AodvRoute> {
 public:
  AodvState();

  /// Standard AODV acceptance rule (newer seq, or equal seq with fewer
  /// hops, or unknown seq on the existing entry). An accepted update keeps
  /// the entry's precursors.
  Learned learn(net::Addr dest, std::uint16_t seq, bool seq_valid,
                net::Addr next_hop, std::uint8_t hops, TimePoint now,
                Duration lifetime);
  bool update_route(net::Addr dest, std::uint16_t seq, bool seq_valid,
                    net::Addr next_hop, std::uint8_t hops, TimePoint now,
                    Duration lifetime) {
    return learn(dest, seq, seq_valid, next_hop, hops, now, lifetime).changed;
  }
  /// The skeleton's learn step: sequence numbers from RREQ/RREP originators
  /// are always known.
  Learned learn(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
                std::uint8_t hops, TimePoint now, Duration lifetime) override {
    return learn(dest, seq, true, next_hop, hops, now, lifetime);
  }

  void add_precursor(net::Addr dest, net::Addr precursor);


  /// Single-entry two-phase expiry (soft-state layer). Phase 1 — a *valid*
  /// entry lapsed: mark invalid, bump dest_seq, keep the seqnum memory for
  /// kAodvDeletePeriod and return the retention deadline with `invalidated`
  /// set (caller removes the kernel route). Phase 2 — an *invalid* entry
  /// lapsed: delete it outright, returns nullopt. If the deadline moved into
  /// the future meanwhile, returns it untouched so the caller can re-arm.
  std::optional<TimePoint> expire_one(net::Addr dest, TimePoint now,
                                      bool& invalidated);

  std::uint16_t own_seq() const { return own_seq_; }
  std::uint16_t bump_seq() { return ++own_seq_; }
  std::uint32_t next_rreq_id() { return ++rreq_id_; }

  /// RREQ duplicate cache keyed by (originator, rreq id). Its soft keys
  /// carry the rreq id's low 24 bits (see aodv_rreq_key).
  bool check_rreq_seen(net::Addr origin, std::uint32_t rreq_id,
                       TimePoint now) {
    return seen().check(origin, rreq_id, now);
  }
  void expire_rreq_cache(TimePoint now, Duration hold) {
    seen().expire(now, hold);
  }

  /// RREQ tries per discovery before giving up (RREQ_RETRIES in RFC 3561).
  static constexpr std::uint8_t kMaxTries = 2;

  std::string describe() const override;

  // -- IStateCodec (S-element replication) --------------------------------------
  /// Route table (with precursors and seqnum memory), own sequence number,
  /// RREQ-ID counter and the RREQ duplicate cache. Pending discoveries are
  /// transient negotiation state and are not carried.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  std::uint16_t own_seq_ = 1;
  std::uint32_t rreq_id_ = 0;
};

}  // namespace mk::proto
