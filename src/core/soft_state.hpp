// Shared soft-state expiry layer (ISSUE 6). MANET protocol state is almost
// entirely soft: link/neighbor sets, MPR selector sets, TC-derived topology
// tuples, reactive route-table entries and duplicate caches all carry
// RFC-style holding times and must vanish — with a loss event — when their
// deadline lapses. Before this component each protocol CF ran its own
// PeriodicTimer sweep, which coupled expiry latency to the sweep cadence and
// (the ISSUE-6 bug) let stale state survive partitions between sweeps.
//
// SoftExpiry is an Event Source that protocols register *sets* into: a set
// has a name (journaled as a stable hash), a default holding time, a loss
// callback, and an optional reseed enumerator (used after a supervised
// restart re-instantiates sources around a carried S element). Entries are
// per-key deadlines armed directly on the scheduler — one timer per entry,
// which the hierarchical timer wheel makes O(1) to arm and cancel.
//
// Refreshes are lazy: touch() on an already-armed entry just records the new
// deadline, and the timer re-arms itself when the stale deadline fires. A
// link refreshed every HELLO therefore costs a table update per HELLO but
// only one scheduler arm per holding time, keeping steady-state timer
// traffic (and allocations) low. Each set's entries sit in a sorted flat
// table (util/flat_map.hpp): a refresh is a binary search, not a node walk.
//
// Every true expiry appends a kSoftExpire journal record (through the
// owning Framework Manager's journal, when tracing is attached), so
// partition chaos runs can assert on the expiry stream itself.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cfs.hpp"
#include "opencom/interface.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace mk::core {

/// Introspection interface of the soft-state layer (provided as
/// "ISoftExpiry" on the SoftExpiry source component).
struct ISoftExpiry : oc::Interface {
  using SetId = std::uint8_t;

  /// Invoked when an entry's holding time lapses (after the entry is gone).
  using LossFn = std::function<void(std::uint64_t key, ProtocolContext& ctx)>;
  /// Enumerates keys to re-arm when the source (re)starts over carried
  /// state; each gets a fresh default hold.
  using SeedFn = std::function<std::vector<std::uint64_t>()>;

  /// Registers a soft-state set; returns its id (stable for this instance).
  virtual SetId define_set(std::string name, Duration hold, LossFn on_expire,
                           SeedFn seed = nullptr) = 0;

  /// Arms or refreshes `key` to expire at now() + the set's holding time.
  virtual void touch(SetId set, std::uint64_t key) = 0;

  /// Arms or refreshes `key` with an explicit deadline (reactive routes
  /// carry per-entry lifetimes).
  virtual void touch_at(SetId set, std::uint64_t key, TimePoint deadline) = 0;

  /// Forgets `key` without a loss event (explicit removal, e.g. LOST link
  /// codes). Returns false if the key was not tracked.
  virtual bool drop(SetId set, std::uint64_t key) = 0;

  virtual bool contains(SetId set, std::uint64_t key) const = 0;

  /// Tracked entries (== armed deadlines) in one set / across all sets.
  virtual std::size_t size(SetId set) const = 0;
  virtual std::size_t armed() const = 0;
};

/// The Event Source implementation. Build-time: protocols define their sets
/// when the CF is composed; run-time: handlers touch()/drop() keys as
/// protocol messages arrive, and loss callbacks fire from the scheduler.
class SoftExpiry final : public EventSource, public ISoftExpiry {
 public:
  SoftExpiry();

  // -- EventSource ------------------------------------------------------------
  void start(ProtocolContext& ctx) override;
  void stop() override;

  // -- ISoftExpiry ------------------------------------------------------------
  SetId define_set(std::string name, Duration hold, LossFn on_expire,
                   SeedFn seed = nullptr) override;
  void touch(SetId set, std::uint64_t key) override;
  void touch_at(SetId set, std::uint64_t key, TimePoint deadline) override;
  bool drop(SetId set, std::uint64_t key) override;
  bool contains(SetId set, std::uint64_t key) const override;
  std::size_t size(SetId set) const override;
  std::size_t armed() const override;

 private:
  struct Entry {
    TimePoint deadline{};  // authoritative expiry time
    TimePoint armed_at{};  // when the pending timer actually fires
    TimerId timer = kInvalidTimer;
  };
  struct Set {
    std::string name;
    std::uint64_t name_hash = 0;
    Duration hold{};
    LossFn on_expire;
    SeedFn seed;
    FlatMap<std::uint64_t, Entry> entries;
  };

  void arm(SetId set, std::uint64_t key, Entry& entry, TimePoint at);
  void fire(SetId set, std::uint64_t key);

  ProtocolContext* ctx_ = nullptr;
  std::vector<Set> sets_;
};

/// The protocol's SoftExpiry source, or null if the composition has none.
/// Handlers cache the pointer (sources outlive handlers only within one
/// composition epoch; a rebuilt CF re-resolves).
SoftExpiry* soft_expiry_of(ProtocolContext& ctx);

}  // namespace mk::core
