// Hierarchical timing wheel: ordering, cascade boundaries, cancel-in-flight,
// zero-delay arms, overflow horizon, bounded peeks, and randomized
// heap-vs-wheel parity at both the wheel and the SimScheduler level —
// including dense floods that insert into the sorted slot being drained.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/scheduler.hpp"
#include "util/timer_wheel.hpp"

namespace mk {
namespace {

constexpr std::int64_t kTick = std::int64_t{1} << TimerWheel::kTickShift;
// Spans, in microseconds, of each wheel level's window.
constexpr std::int64_t kL0Span = kTick * TimerWheel::kSlots;
constexpr std::int64_t kL1Span = kL0Span * TimerWheel::kSlots;
constexpr std::int64_t kL2Span = kL1Span * TimerWheel::kSlots;
constexpr std::int64_t kL3Span = kL2Span * TimerWheel::kSlots;

/// Drains the wheel, returning the popped keys in fire order.
std::vector<TimerWheel::Key> drain(TimerWheel& wheel) {
  std::vector<TimerWheel::Key> out;
  TimerWheel::Key key;
  std::function<void()> fn;
  while (wheel.pop(key, fn)) {
    out.push_back(key);
    if (fn) fn();
  }
  return out;
}

TEST(TimerWheel, PopsInTimeThenSeqOrder) {
  TimerWheel wheel;
  wheel.insert(300, 1, [] {});
  wheel.insert(100, 2, [] {});
  wheel.insert(100, 3, [] {});
  wheel.insert(200, 4, [] {});
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], (TimerWheel::Key{100, 2}));
  EXPECT_EQ(keys[1], (TimerWheel::Key{100, 3}));
  EXPECT_EQ(keys[2], (TimerWheel::Key{200, 4}));
  EXPECT_EQ(keys[3], (TimerWheel::Key{300, 1}));
}

TEST(TimerWheel, ZeroDelayArmFiresImmediately) {
  TimerWheel wheel;
  // Simulate "schedule at now" after the wheel has advanced: pop an entry to
  // move the cursor, then arm at the already-reached time.
  wheel.insert(5 * kTick, 1, [] {});
  TimerWheel::Key key;
  std::function<void()> fn;
  ASSERT_TRUE(wheel.pop(key, fn));
  wheel.insert(5 * kTick, 2, [] {});  // same-tick re-arm
  wheel.insert(0, 3, [] {});          // behind the cursor entirely
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  // The stale deadline still fires first: per-slot ordering is by (us, seq).
  EXPECT_EQ(keys[0], (TimerWheel::Key{0, 3}));
  EXPECT_EQ(keys[1], (TimerWheel::Key{5 * kTick, 2}));
}

TEST(TimerWheel, CascadeAcrossEveryLevelBoundary) {
  // One entry per level, each just past the previous level's horizon, plus
  // one just *inside* each boundary — exercises slot placement and the
  // cascade path at all three level crossings.
  TimerWheel wheel;
  std::vector<std::int64_t> times = {
      kL0Span - kTick, kL0Span,          // level 0/1 edge
      kL1Span - kTick, kL1Span,          // level 1/2 edge
      kL2Span - kTick, kL2Span,          // level 2/3 edge
      kL3Span - kTick,                   // deep level 3
  };
  std::uint64_t seq = 1;
  for (std::int64_t t : times) wheel.insert(t, seq++, [] {});
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(keys[i].us, times[i]) << "position " << i;
  }
}

TEST(TimerWheel, FarFutureOverflowsAndStillFiresInOrder)
{
  TimerWheel wheel;
  const std::int64_t never = sec(1'000'000'000).count();  // fault-plan sentinel
  wheel.insert(never, 1, [] {});
  wheel.insert(kTick, 2, [] {});
  wheel.insert(never - 1, 3, [] {});
  EXPECT_EQ(wheel.size(), 3u);
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq, 2u);
  EXPECT_EQ(keys[1].seq, 3u);
  EXPECT_EQ(keys[2].seq, 1u);
}

TEST(TimerWheel, CancelRemovesPendingEntries) {
  TimerWheel wheel;
  wheel.insert(100, 1, [] {});
  wheel.insert(kL1Span + 5, 2, [] {});                       // level 2
  wheel.insert(sec(1'000'000'000).count(), 3, [] {});        // overflow
  EXPECT_TRUE(wheel.cancel(2));
  EXPECT_TRUE(wheel.cancel(3));
  EXPECT_FALSE(wheel.cancel(3));  // second cancel is a no-op
  EXPECT_FALSE(wheel.cancel(99));
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].seq, 1u);
}

TEST(TimerWheel, CancelOfTheInvalidIdIsANoOp) {
  // Callers hold kInvalidTimer (0) for "nothing armed" and cancel it
  // unconditionally; that must not disturb the pending entries.
  TimerWheel wheel;
  wheel.insert(100, 1, [] {});
  wheel.insert(200, 2, [] {});
  EXPECT_FALSE(wheel.cancel(kInvalidTimer));
  EXPECT_EQ(wheel.size(), 2u);
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].seq, 1u);
  EXPECT_EQ(keys[1].seq, 2u);
}

TEST(TimerWheel, CancelInFlightFromACallback) {
  // A firing callback cancels a peer armed for the same tick and a later one:
  // neither must fire, and the wheel must stay consistent.
  TimerWheel wheel;
  std::vector<std::uint64_t> fired;
  wheel.insert(100, 1, [&] {
    wheel.cancel(2);
    wheel.cancel(3);
  });
  wheel.insert(100, 2, [&] { fired.push_back(2); });
  wheel.insert(5000, 3, [&] { fired.push_back(3); });
  wheel.insert(5000, 4, [&] { fired.push_back(4); });
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[1].seq, 4u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{4}));
}

TEST(TimerWheel, RandomizedParityAgainstSortedReference) {
  Rng rng(1234);
  TimerWheel wheel;
  std::vector<TimerWheel::Key> pending;  // armed, not yet popped or canceled
  std::vector<TimerWheel::Key> expect;   // everything that should fire
  std::uint64_t seq = 1;
  std::int64_t base = 0;
  // Interleave pops with bursts of arms/cancels across all horizons.
  std::vector<TimerWheel::Key> got;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::int64_t horizon = 0;
      switch (rng.next_u64() % 4) {
        case 0: horizon = kL0Span; break;
        case 1: horizon = kL1Span; break;
        case 2: horizon = kL2Span; break;
        default: horizon = 4 * kL3Span; break;  // forces overflow sometimes
      }
      std::int64_t at =
          base + static_cast<std::int64_t>(rng.next_u64() % horizon);
      wheel.insert(at, seq, [] {});
      pending.push_back({at, seq});
      ++seq;
    }
    if (!pending.empty() && rng.next_u64() % 2 == 0) {
      std::size_t victim = rng.next_u64() % pending.size();
      ASSERT_TRUE(wheel.cancel(pending[victim].seq));
      pending.erase(pending.begin() + victim);
    }
    for (int i = 0; i < 15; ++i) {
      TimerWheel::Key key;
      std::function<void()> fn;
      if (!wheel.pop(key, fn)) break;
      got.push_back(key);
      expect.push_back(key);
      base = std::max(base, key.us);
      auto it = std::find_if(pending.begin(), pending.end(),
                             [&](const auto& p) { return p.seq == key.seq; });
      ASSERT_NE(it, pending.end()) << "popped an entry not pending";
      pending.erase(it);
    }
  }
  for (auto& k : drain(wheel)) got.push_back(k);
  expect.insert(expect.end(), pending.begin(), pending.end());
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
      << "wheel fire order diverged from the sorted reference";
}

TEST(TimerWheel, BoundedPeekStillSeesEntriesClampedIntoTheCursorSlot) {
  TimerWheel wheel;
  wheel.insert(5 * kTick, 1, [] {});
  wheel.insert(200 * kTick, 2, [] {});
  TimerWheel::Key key;
  std::function<void()> fn;
  ASSERT_TRUE(wheel.pop(key, fn));  // cursor now on tick 5
  EXPECT_FALSE(wheel.peek(10 * kTick).has_value());
  // Behind the cursor: clamped into its slot, yet due before any limit
  // past its own time, even one whose tick is behind the cursor.
  wheel.insert(100, 3, [] {});
  auto due = wheel.peek(200);
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, (TimerWheel::Key{100, 3}));
  EXPECT_FALSE(wheel.peek(99).has_value());
  auto keys = drain(wheel);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].seq, 3u);
  EXPECT_EQ(keys[1].seq, 2u);
}

TEST(TimerWheel, DenseSameTickParityAgainstSortedReference) {
  // Thousands of entries inside two ticks, drained while the test keeps
  // arming into the sorted slot being drained (same us, later us in the
  // tick), behind the cursor and into the next tick, and cancels entries
  // of the sorted slot — both directly and from the popped callback.
  Rng rng(4242);
  TimerWheel wheel;
  std::set<TimerWheel::Key> pending;
  std::vector<std::int64_t> us_of{-1};  // by seq; -1 once popped/cancelled
  const std::int64_t tick0 = 40 * kTick;
  auto arm = [&](std::int64_t us, std::function<void()> fn) {
    const auto seq = static_cast<std::uint64_t>(us_of.size());
    wheel.insert(us, seq, std::move(fn));
    pending.insert({us, seq});
    us_of.push_back(us);
  };
  auto cancel_random = [&] {
    const std::uint64_t victim = 1 + rng.next_u64() % (us_of.size() - 1);
    const bool live = us_of[victim] >= 0;
    EXPECT_EQ(wheel.cancel(victim), live) << "seq " << victim;
    if (live) pending.erase({us_of[victim], victim});
    us_of[victim] = -1;
  };
  auto callback = [&] {
    if (rng.next_u64() % 4 == 0) cancel_random();
  };
  for (int i = 0; i < 4000; ++i) {
    // 64 distinct deadlines over two ticks: long FIFO runs of equal us.
    arm(tick0 + static_cast<std::int64_t>(rng.next_u64() % 64) * (kTick / 32),
        callback);
  }
  std::size_t pops = 0;
  TimerWheel::Key key;
  std::function<void()> fn;
  while (wheel.pop(key, fn)) {
    ASSERT_FALSE(pending.empty());
    ASSERT_EQ(key, *pending.begin()) << "pop " << pops;
    pending.erase(pending.begin());
    us_of[key.seq] = -1;
    ++pops;
    fn();
    if (us_of.size() < 9000) {
      const std::int64_t tick_end = (key.us / kTick + 1) * kTick;
      switch (rng.next_u64() % 6) {
        case 0: arm(key.us, callback); break;  // equal deadline, later seq
        case 1:
          arm(key.us + static_cast<std::int64_t>(
                           rng.next_u64() % (tick_end - key.us)),
              callback);
          break;
        case 2:  // behind the cursor
          arm(key.us - 1 - static_cast<std::int64_t>(rng.next_u64() % kTick),
              callback);
          break;
        case 3:  // next tick: an unsorted slot, sorted on entry
          arm(tick_end + static_cast<std::int64_t>(rng.next_u64() % kTick),
              callback);
          break;
        case 4: cancel_random(); break;
        default: break;
      }
    }
    ASSERT_EQ(wheel.size(), pending.size());
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(pops, 4000u);
}

// ---------------------------------------------------------------- scheduler

TEST(SimSchedulerBackend, WheelAndHeapRunIdenticalSchedules) {
  auto run = [](SimBackend backend) {
    SimScheduler sched(backend);
    Rng rng(77);
    std::vector<std::pair<std::int64_t, TimerId>> fired;
    sched.set_fire_hook([&](TimerId id, TimePoint at) {
      fired.emplace_back(at.us, id);
    });
    std::vector<TimerId> ids;
    for (int i = 0; i < 500; ++i) {
      auto at = TimePoint{static_cast<std::int64_t>(rng.next_u64() % 5'000'000)};
      ids.push_back(sched.schedule_at(at, [] {}));
    }
    for (int i = 0; i < 100; ++i) {
      sched.cancel(ids[rng.next_u64() % ids.size()]);
    }
    sched.run_all();
    return fired;
  };
  auto wheel = run(SimBackend::kWheel);
  auto heap = run(SimBackend::kHeap);
  ASSERT_EQ(wheel.size(), heap.size());
  EXPECT_EQ(wheel, heap) << "backends disagreed on fire order or timer ids";
}

TEST(SimSchedulerBackend, WheelHandlesSelfReschedulingChains) {
  SimScheduler sched;  // wheel is the default
  EXPECT_EQ(sched.backend(), SimBackend::kWheel);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 64) sched.schedule_after(msec(1), chain);
  };
  sched.schedule_after(msec(1), chain);
  sched.run_all();
  EXPECT_EQ(depth, 64);
  EXPECT_EQ(sched.now().us, 64 * 1000);
}

TEST(SimSchedulerBackend, WheelAndHeapAgreeOnAFloodDrivenByRunUntil) {
  // Flood-shaped schedule: every callback fans out 0-3 children 500-1500 us
  // ahead and sometimes cancels an earlier timer, so each tick holds
  // thousands of entries while run_until steps (shorter and longer than a
  // tick) keep arming into the slot being drained.
  auto run = [](SimBackend backend) {
    SimScheduler sched(backend);
    Rng rng(99);
    std::vector<std::pair<std::int64_t, TimerId>> fired;
    sched.set_fire_hook([&](TimerId id, TimePoint at) {
      fired.emplace_back(at.us, id);
    });
    std::vector<TimerId> ids;
    std::size_t budget = 30000;
    std::function<void()> relay = [&] {
      const auto fan = rng.next_u64() % 4;
      for (std::uint64_t i = 0; i < fan && budget > 0; ++i, --budget) {
        ids.push_back(sched.schedule_after(
            usec(500 + static_cast<std::int64_t>(rng.next_u64() % 1001)),
            relay));
      }
      if (rng.next_u64() % 16 == 0) {
        sched.cancel(ids[rng.next_u64() % ids.size()]);
      }
    };
    for (int s = 0; s < 8; ++s) {
      ids.push_back(sched.schedule_at(
          TimePoint{s * 3000 + static_cast<std::int64_t>(rng.next_u64() % 1000)},
          relay));
    }
    while (sched.pending() > 0) {
      sched.run_for(usec(300 + static_cast<std::int64_t>(rng.next_u64() % 1700)));
    }
    return fired;
  };
  auto wheel = run(SimBackend::kWheel);
  auto heap = run(SimBackend::kHeap);
  EXPECT_GT(wheel.size(), 10000u);
  ASSERT_EQ(wheel.size(), heap.size());
  EXPECT_EQ(wheel, heap) << "backends disagreed on fire order or timer ids";
}

}  // namespace
}  // namespace mk
