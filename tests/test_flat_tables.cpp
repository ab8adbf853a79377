// Flat tables on the reactive message path, checked against std::map: the
// FlatMap container itself, the order-sensitive outputs built on it (RERR
// contents from invalidate_via, DymoState codec bytes, seen-set soft keys),
// the inline path cap of the DYMO state codec, and PacketBB address-TLV
// values across SmallBytes' inline/heap boundary. std::map appears here only
// as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "core/state_codec.hpp"
#include "packetbb/packetbb.hpp"
#include "protocols/aodv/aodv_cf.hpp"
#include "protocols/dymo/dymo_cf.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace mk {
namespace {

std::uint64_t test_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1234;
}

template <class K, class V>
void expect_same(const FlatMap<K, V>& flat, const std::map<K, V>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : flat) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(FlatMap, RandomOpsMatchStdMap) {
  Rng rng(test_seed());
  FlatMap<std::uint32_t, int> flat;
  std::map<std::uint32_t, int> ref;
  for (int step = 0; step < 20000; ++step) {
    // A small key space keeps hits, misses and erases all frequent.
    const auto key = static_cast<std::uint32_t>(rng.uniform_int(0, 300));
    const int value = static_cast<int>(rng.uniform_int(-1000, 1000));
    switch (rng.uniform_int(0, 6)) {
      case 0: {
        auto [it, inserted] = flat.try_emplace(key, value);
        auto [rit, rinserted] = ref.try_emplace(key, value);
        EXPECT_EQ(inserted, rinserted);
        EXPECT_EQ(it->second, rit->second);
        break;
      }
      case 1:
        flat[key] = value;
        ref[key] = value;
        break;
      case 2:
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 3: {
        auto it = flat.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(it == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
        EXPECT_EQ(flat.contains(key), ref.contains(key));
        break;
      }
      case 4: {
        auto it = flat.lower_bound(key);
        auto rit = ref.lower_bound(key);
        ASSERT_EQ(it == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(it->first, rit->first);
        }
        break;
      }
      case 5: {
        // Erase by iterator while walking, as the expiry loops do.
        const int cut = value;
        for (auto it = flat.begin(); it != flat.end();) {
          it = it->second < cut / 4 ? flat.erase(it) : std::next(it);
        }
        std::erase_if(ref, [&](const auto& e) { return e.second < cut / 4; });
        break;
      }
      default: {
        const int cut = value;
        const std::size_t n =
            flat.erase_if([&](const auto& e) { return e.second > cut; });
        EXPECT_EQ(n, std::erase_if(
                         ref, [&](const auto& e) { return e.second > cut; }));
        break;
      }
    }
    if (step % 97 == 0) expect_same(flat, ref);
  }
  expect_same(flat, ref);
}

// -- DYMO route table and seen set against a std::map model -------------------

/// What the DYMO state holds for one destination, in the reference model.
struct RefRoute {
  std::uint16_t seq = 0;
  bool valid = true;
  std::int64_t expires_us = 0;
  net::Addr next_hop = 0;
  std::uint8_t hops = 0;
};

bool seq_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(a - b) > 0;
}

/// DYMO's acceptance rule on the reference model; true if the route changed.
bool ref_learn(std::map<net::Addr, RefRoute>& ref, net::Addr dest,
               std::uint16_t seq, net::Addr next_hop, std::uint8_t hops,
               std::int64_t now_us, std::int64_t lifetime_us) {
  auto it = ref.find(dest);
  if (it != ref.end()) {
    RefRoute& r = it->second;
    const bool improves = seq_newer(seq, r.seq) ||
                          (seq == r.seq && !r.valid) ||
                          (seq == r.seq && hops < r.hops);
    if (!improves) {
      if (seq == r.seq && r.valid && r.next_hop == next_hop) {
        r.expires_us = now_us + lifetime_us;
      }
      return false;
    }
  }
  ref[dest] = RefRoute{seq, true, now_us + lifetime_us, next_hop, hops};
  return true;
}

/// The DymoState codec layout (see dymo_state.cpp), written from the model.
std::vector<std::uint8_t> ref_encode(
    std::uint16_t own_seq, const std::map<net::Addr, RefRoute>& routes,
    const std::map<std::pair<net::Addr, std::uint16_t>, std::int64_t>& dups) {
  namespace cc = core::codec;
  std::vector<std::uint8_t> out;
  cc::put_u8(out, 1);
  cc::put_u16(out, own_seq);
  cc::put_u16(out, static_cast<std::uint16_t>(routes.size()));
  for (const auto& [dest, r] : routes) {
    cc::put_u32(out, dest);
    cc::put_u16(out, r.seq);
    cc::put_u8(out, r.valid ? 1 : 0);
    cc::put_i64(out, r.expires_us);
    cc::put_u8(out, 1);
    cc::put_u32(out, r.next_hop);
    cc::put_u8(out, r.hops);
  }
  cc::put_u16(out, static_cast<std::uint16_t>(dups.size()));
  for (const auto& [key, seen_us] : dups) {
    cc::put_u32(out, key.first);
    cc::put_u16(out, key.second);
    cc::put_i64(out, seen_us);
  }
  return out;
}

TEST(ReactiveFlatTables, DymoRoutesRerrOrderAndCodecMatchMapModel) {
  Rng rng(test_seed() + 1);
  proto::DymoState st;
  std::map<net::Addr, RefRoute> ref;
  std::map<std::pair<net::Addr, std::uint16_t>, std::int64_t> dups;
  const Duration lifetime = sec(5);
  std::int64_t now_us = 0;
  for (int step = 0; step < 6000; ++step) {
    now_us += rng.uniform_int(0, 2000);
    const TimePoint now{now_us};
    // Sparse addresses: table order is numeric, not insertion order.
    const auto dest = static_cast<net::Addr>(
        0x0A000000u +
        static_cast<std::uint32_t>(rng.uniform_int(0, 120)) * 977u);
    const auto hop = static_cast<net::Addr>(rng.uniform_int(1, 6));
    switch (rng.uniform_int(0, 9)) {
      case 0: {  // a link break: the RERR lists dests in ascending order
        proto::reactive::Unreachable expected;
        for (auto& [d, r] : ref) {
          if (r.valid && r.next_hop == hop) {
            r.valid = false;
            expected.emplace_back(d, r.seq);
          }
        }
        EXPECT_EQ(st.invalidate_via(hop), expected);
        break;
      }
      case 1: {  // a route lapses
        EXPECT_EQ(st.drop_route(dest), ref.erase(dest) > 0);
        break;
      }
      case 2:
      case 3: {  // an RREQ sighting
        const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 8));
        auto [it, fresh] = dups.try_emplace({dest, seq}, now_us);
        if (!fresh) it->second = now_us;
        EXPECT_EQ(st.seen().check(dest, seq, now), !fresh);
        break;
      }
      case 4: {  // a duplicate-set entry lapses by its soft key
        const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 8));
        EXPECT_EQ(st.seen().drop(st.seen().soft_key(dest, seq)),
                  dups.erase({dest, seq}) > 0);
        break;
      }
      default: {
        const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 40));
        const auto hops = static_cast<std::uint8_t>(rng.uniform_int(1, 9));
        const auto learned = st.learn(dest, seq, hop, hops, now, lifetime);
        EXPECT_EQ(learned.changed, ref_learn(ref, dest, seq, hop, hops, now_us,
                                             lifetime.count()));
        EXPECT_EQ(learned.expires.us, ref.at(dest).expires_us);
        break;
      }
    }
    if (step % 250 == 0 || step == 5999) {
      std::vector<std::uint8_t> bytes;
      st.encode_state(bytes);
      ASSERT_EQ(bytes, ref_encode(st.own_seq(), ref, dups)) << "step " << step;
      std::vector<std::uint64_t> keys;
      for (const auto& [key, _] : dups) {
        keys.push_back(proto::dymo_dup_key(key.first, key.second));
      }
      EXPECT_EQ(st.seen().soft_keys(), keys);
      std::vector<net::Addr> dests;
      for (const auto& [d, _] : ref) dests.push_back(d);
      EXPECT_EQ(st.route_dests(), dests);
    }
  }
}

TEST(ReactiveFlatTables, AodvSeenSetDropsLowestIdWithMatchingLowBits) {
  Rng rng(test_seed() + 2);
  proto::AodvState st;
  std::map<std::pair<net::Addr, std::uint32_t>, std::int64_t> ref;
  for (int step = 0; step < 5000; ++step) {
    const auto origin = static_cast<net::Addr>(rng.uniform_int(1, 12));
    // Ids straddle 2^24, so distinct ids share a 24-bit soft key.
    const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, 6)) +
                    (rng.bernoulli(0.5) ? 0x1000000u : 0u);
    if (rng.bernoulli(0.6)) {
      const bool had = ref.contains({origin, id});
      ref[{origin, id}] = step;
      EXPECT_EQ(st.check_rreq_seen(origin, id, TimePoint{step}), had);
    } else {
      // The reference: the first tuple of `origin` whose low 24 bits match.
      bool expected = false;
      for (auto it = ref.lower_bound({origin, 0});
           it != ref.end() && it->first.first == origin; ++it) {
        if ((it->first.second & 0xFFFFFF) == (id & 0xFFFFFF)) {
          ref.erase(it);
          expected = true;
          break;
        }
      }
      EXPECT_EQ(st.seen().drop(proto::aodv_rreq_key(origin, id)), expected);
    }
  }
  std::vector<std::pair<net::Addr, std::uint32_t>> got;
  st.seen().for_each([&](net::Addr o, std::uint32_t i, TimePoint at) {
    got.emplace_back(o, i);
    EXPECT_EQ(at.us, ref.at({o, i}));
  });
  std::vector<std::pair<net::Addr, std::uint32_t>> want;
  for (const auto& [key, _] : ref) want.push_back(key);
  EXPECT_EQ(got, want);
}

// -- DymoState codec: the inline path list has a hard cap ----------------------

std::vector<std::uint8_t> one_route_blob(std::size_t n_paths) {
  namespace cc = core::codec;
  std::vector<std::uint8_t> out;
  cc::put_u8(out, 1);   // codec version
  cc::put_u16(out, 9);  // own seq
  cc::put_u16(out, 1);  // one route
  cc::put_u32(out, 42);
  cc::put_u16(out, 5);
  cc::put_u8(out, 1);
  cc::put_i64(out, 1'000'000);
  cc::put_u8(out, static_cast<std::uint8_t>(n_paths));
  for (std::size_t i = 0; i < n_paths; ++i) {
    cc::put_u32(out, static_cast<std::uint32_t>(100 + i));
    cc::put_u8(out, static_cast<std::uint8_t>(i + 1));
  }
  cc::put_u16(out, 0);  // no duplicate tuples
  return out;
}

TEST(DymoStateCodec, RejectsMorePathsThanTheCap) {
  proto::MultipathDymoState st;
  constexpr std::size_t kCap = proto::MultipathDymoState::kMaxPaths;
  ASSERT_TRUE(st.decode_state(one_route_blob(kCap)));
  EXPECT_EQ(st.path_count(42), kCap);

  // One path too many: rejected outright, never truncated.
  EXPECT_FALSE(st.decode_state(one_route_blob(kCap + 1)));
  EXPECT_FALSE(st.decode_state(one_route_blob(255)));
}

TEST(DymoStateCodec, FullPathListsRoundTrip) {
  proto::MultipathDymoState st;
  st.update_route(42, 5, 20, 2, TimePoint{0}, sec(5));
  ASSERT_TRUE(st.add_alternate_path(42, 21, 3));
  ASSERT_TRUE(st.add_alternate_path(42, 22, 4));
  std::vector<std::uint8_t> bytes;
  st.encode_state(bytes);

  proto::MultipathDymoState copy;
  ASSERT_TRUE(copy.decode_state(bytes));
  ASSERT_EQ(copy.path_count(42), 3u);
  const auto route = copy.route_to(42);
  std::vector<net::Addr> hops;
  for (const auto& p : route->paths) hops.push_back(p.next_hop);
  EXPECT_EQ(hops, (std::vector<net::Addr>{20, 21, 22}));
  std::vector<std::uint8_t> again;
  copy.encode_state(again);
  EXPECT_EQ(again, bytes);
}

// -- PacketBB address-TLV values across the inline/heap boundary --------------

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 31 + salt);
  }
  return out;
}

constexpr std::size_t kValueSizes[] = {0, 1, 4, 8, 9, 300};

pbb::Packet packet_with_value_sizes(std::uint8_t salt) {
  pbb::Message m;
  m.type = 7;
  m.originator = 0x0A000001;
  m.seqnum = 3;
  pbb::AddressBlock block;
  for (std::size_t i = 0; i < std::size(kValueSizes); ++i) {
    block.addrs.push_back(static_cast<pbb::Addr>(0x0A000010 + i));
    const auto idx = static_cast<std::uint8_t>(i);
    block.tlvs.push_back(
        pbb::AddressTlv{static_cast<std::uint8_t>(40 + i), idx, idx,
                        pattern(kValueSizes[i], salt)});
  }
  m.addr_blocks.push_back(std::move(block));
  pbb::Packet p;
  p.messages.push_back(std::move(m));
  return p;
}

TEST(PacketBBSmallValues, RoundTripAcrossInlineBoundary) {
  const pbb::Packet p = packet_with_value_sizes(1);
  const auto bytes = pbb::serialize(p);
  auto parsed = pbb::parse(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed.value(), p);
  EXPECT_EQ(pbb::serialize(parsed.value()), bytes);
  const auto& tlvs = parsed.value().messages[0].addr_blocks[0].tlvs;
  for (std::size_t i = 0; i < std::size(kValueSizes); ++i) {
    ASSERT_EQ(tlvs[i].value.size(), kValueSizes[i]);
    EXPECT_TRUE(std::equal(tlvs[i].value.begin(), tlvs[i].value.end(),
                           pattern(kValueSizes[i], 1).begin()));
  }

  // A scratch packet re-used across shapes: each value slot goes from
  // inline to heap and back without losing or leaking bytes.
  pbb::Packet scratch;
  for (std::uint8_t salt = 0; salt < 6; ++salt) {
    pbb::Packet q = packet_with_value_sizes(salt);
    auto& qt = q.messages[0].addr_blocks[0].tlvs;
    std::rotate(qt.begin(), qt.begin() + salt, qt.end());  // shuffle sizes
    for (std::size_t i = 0; i < qt.size(); ++i) {
      qt[i].index_start = qt[i].index_stop = static_cast<std::uint8_t>(i);
    }
    const auto qbytes = pbb::serialize(q);
    ASSERT_TRUE(pbb::parse_into(qbytes, scratch));
    EXPECT_EQ(scratch, q);
  }
}

TEST(PacketBBSmallValues, CopyMoveAndSelfAssignment) {
  for (std::size_t n : kValueSizes) {
    pbb::AddressTlv t{9, 0, 0, pattern(n, 7)};
    const pbb::AddressTlv original = t;

    pbb::AddressTlv copy = t;
    EXPECT_EQ(copy, original);
    if (n > 0) {
      copy.value[n - 1] ^= 0xFF;
      EXPECT_NE(copy, original);
    }
    EXPECT_EQ(t, original);  // deep copy: t is untouched

    pbb::AddressTlv moved = std::move(copy);
    EXPECT_EQ(moved.value.size(), n);
    EXPECT_TRUE(copy.value.empty());  // NOLINT(bugprone-use-after-move)

    pbb::AddressTlv assigned{1, 0, 0, {1, 2, 3}};
    assigned = t;
    EXPECT_EQ(assigned, original);
    assigned = pbb::AddressTlv{2, 0, 0, pattern(300 - n, 3)};
    EXPECT_EQ(assigned.value.size(), 300 - n);

    auto& alias = t;
    t = alias;
    EXPECT_EQ(t, original);
    t.value = std::move(alias.value);
    EXPECT_EQ(t, original);

    t.value.resize(n + 5);
    EXPECT_EQ(t.value.size(), n + 5);
    for (std::size_t i = n; i < n + 5; ++i) EXPECT_EQ(t.value[i], 0);
    EXPECT_TRUE(std::equal(original.value.begin(), original.value.end(),
                           t.value.begin()));
  }
}

}  // namespace
}  // namespace mk
