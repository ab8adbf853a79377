// S element of the DYMO CF: the reactive routing table (with sequence
// numbers and lifetimes). The pending route-discovery table and the RREQ
// duplicate set (the seen set, keyed by RM sequence number) come from the
// reactive skeleton's base.
//
// The route representation carries a *path list* so the multipath variant
// can replace the S component with one that accommodates multiple
// link-disjoint paths per destination (§5.2) while sharing this base.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "protocols/reactive.hpp"
#include "util/time.hpp"

namespace mk::proto {

struct DymoPath {
  net::Addr next_hop = net::kNoAddr;
  std::uint8_t hops = 0;
};

/// Most link-disjoint paths a route holds (the multipath variant's bound).
inline constexpr std::size_t kDymoMaxPaths = 3;

/// A route's path list, held inline: at most kDymoMaxPaths entries, [0] the
/// active path.
class DymoPaths {
 public:
  DymoPaths() = default;
  DymoPaths(std::initializer_list<DymoPath> paths) {
    for (const DymoPath& p : paths) push_back(p);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kDymoMaxPaths; }
  const DymoPath& operator[](std::size_t i) const { return paths_[i]; }
  const DymoPath& front() const { return paths_[0]; }
  const DymoPath* begin() const { return paths_.data(); }
  const DymoPath* end() const { return paths_.data() + size_; }

  /// Appends a path; the caller checks full() first.
  void push_back(DymoPath p) { paths_[size_++] = p; }
  /// Drops the active path and promotes the next one.
  void pop_front() {
    for (std::size_t i = 1; i < size_; ++i) paths_[i - 1] = paths_[i];
    --size_;
  }

 private:
  std::array<DymoPath, kDymoMaxPaths> paths_{};
  std::uint8_t size_ = 0;
};

struct DymoRoute {
  net::Addr dest = net::kNoAddr;
  std::uint16_t seqnum = 0;
  bool valid = true;
  TimePoint expires{};
  DymoPaths paths;  // [0] is the active path

  const DymoPath* active() const { return paths.empty() ? nullptr : &paths[0]; }
  net::Addr via() const {
    return paths.empty() ? net::kNoAddr : paths[0].next_hop;
  }
  /// DYMO reports the route's own seqnum as unreachable.
  std::uint16_t invalidate() {
    valid = false;
    return seqnum;
  }
};

class DymoState : public reactive::RouteTable<DymoRoute> {
 public:
  DymoState();

  // -- routing table ------------------------------------------------------------
  /// Applies learned routing information. Accepted (changed) if the
  /// destination is unknown, the seqnum is newer, or seqnum ties and the hop
  /// count improves (loop-freedom rule). Resets the path list to the single
  /// new path and refreshes the lifetime.
  Learned learn(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
                std::uint8_t hops, TimePoint now, Duration lifetime) override;

  /// Drops expired routes; returns their destinations (for kernel cleanup).
  std::vector<net::Addr> expire(TimePoint now);

  /// Removes one route outright (soft-state expiry); returns true if it was
  /// present.
  bool drop_route(net::Addr dest) { return routes_.erase(dest) > 0; }

  DymoRoute* mutable_route(net::Addr dest);

  // -- sequence number --------------------------------------------------------------
  std::uint16_t own_seq() const { return own_seq_; }
  std::uint16_t bump_seq() { return ++own_seq_; }

  /// RREQ tries per discovery before giving up.
  static constexpr std::uint8_t kMaxTries = 3;

  std::string describe() const override;

  // -- IStateCodec (S-element replication) --------------------------------------
  /// Route table (with path lists), own sequence number and the RREQ
  /// duplicate set. Pending discoveries are transient negotiation state —
  /// their retry timers died with the crashed node — and are not carried.
  /// A blob with more than kDymoMaxPaths paths on a route is rejected.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  std::uint16_t own_seq_ = 1;
};

/// Multipath S component: same tables, plus alternate link-disjoint paths.
class MultipathDymoState final : public DymoState {
 public:
  MultipathDymoState() = default;

  /// State transfer from the standard S component (route table carried over).
  explicit MultipathDymoState(const DymoState& base);

  static constexpr std::size_t kMaxPaths = kDymoMaxPaths;

  /// Records an alternate path if its next hop is disjoint from every
  /// existing path's next hop. Returns true if added.
  bool add_alternate_path(net::Addr dest, net::Addr next_hop,
                          std::uint8_t hops);

  /// Drops the active path and promotes the next alternate; returns the new
  /// active path, or nullopt if none remain (route becomes invalid).
  std::optional<DymoPath> fail_over(net::Addr dest);

  std::size_t path_count(net::Addr dest) const;
};

}  // namespace mk::proto
