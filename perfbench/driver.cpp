// Benchmark driver: runs one MANETKit workload in this process and prints one
// JSON object with its metrics on the last line of stdout.
//
//   mk_perfbench --workload olsr-mobile50 --seed 1234 --seconds 30 --trace 0
//
// A run is a fixed set of independent worlds, each seeded from --seed. With
// --trace 0 every world runs once untraced, extra set-ups follow until there
// are enough set-up samples, and then worlds run again in turn while the next
// one fits in --seconds; every repeat must reproduce its world's
// deterministic outputs exactly. With --trace 1 the first half of the worlds
// run once untraced and once traced: the traced run wraps the benchmark's
// calls into each module with host-time spans and harvests the counters the
// modules already keep, and the two runs must agree on every deterministic
// output.
//
// End-to-end host times are calibrated against a fixed kernel run between
// simulation steps, so the host's drifting speed divides out (see
// Calibration below).
//
// perfbench/run.py builds this driver and is the benchmark's entry point;
// perfbench/METRICS.md defines every metric.
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "net/address.hpp"
#include "obs/journal.hpp"
#include "opencom/guard.hpp"
#include "packetbb/packetbb.hpp"
#include "protocols/dymo/multipath.hpp"
#include "protocols/dymo/opt_flood.hpp"
#include "protocols/olsr/fisheye.hpp"
#include "protocols/olsr/power_aware.hpp"
#include "testbed/traffic.hpp"
#include "testbed/world.hpp"
#include "util/memtrack.hpp"

namespace pb {

using mk::Duration;
using mk::msec;
using mk::sec;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time this thread has used, s (a wall/CPU gap shows host contention).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Peak resident set of this process image, MiB. (getrusage's ru_maxrss is
/// no use here: it keeps the launching Python process's peak across exec.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// -- host-speed calibration ------------------------------------------------------

// The benchmark runs on a few cores of a shared machine. How fast those cores
// get through this program drifts with the other tenants' load, by a third
// and more within minutes. So every host time the end-to-end metrics report
// is scaled to a nominal host speed. After every simulation step the driver
// runs one slice of a fixed kernel that calls no MANETKit code and allocates
// nothing: dependent binary searches through a sorted 4 MiB table, hashing as
// they go, so it waits on caches and branches the way the simulation does.
// Each slice makes its searches twice and times only the second pass, so
// the time does not depend on what the simulation left in the caches. Each
// timed span is multiplied by kNominalSliceS over
// the mean time of the slices taken inside it, or, for the reconfiguration
// probe, between its nodes: the host's speed drifts within seconds, so a
// span is calibrated by slices taken while it ran. The slices themselves are
// left out of every timed span.

/// Mean slice time on the 4-vCPU Intel Xeon host the bounds were fixed on.
constexpr double kNominalSliceS = 0.27e-3;
/// Resident from the first slice on; peak_rss_mb leaves it out.
constexpr std::size_t kCalibrationTableBytes = std::size_t{4} << 20;

class Calibration {
 public:
  /// Runs one slice; returns its timed host seconds.
  double slice() {
    // The untimed first pass brings the searched lines into the caches, so
    // the timed pass starts from the same cache state whatever the
    // simulation touched before it.
    warm_ = searches(state_);
    const Clock::time_point t0 = Clock::now();
    state_ = searches(state_);
    const double s = seconds_between(t0, Clock::now());
    total_s_ += s;
    ++slices_;
    return s;
  }
  double mean_slice_s() const {
    return total_s_ / static_cast<double>(std::max<std::uint64_t>(slices_, 1));
  }
  std::uint64_t slices() const { return slices_; }

 private:
  static constexpr int kSearches = 1024;

  std::uint64_t searches(std::uint64_t h) const {
    for (int n = 0; n < kSearches; ++n) {
      h = splitmix64(h);
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), h);
      h ^= it == keys_.end() ? 0 : *it;
    }
    return h;
  }

  static std::vector<std::uint64_t> make_keys() {
    std::vector<std::uint64_t> keys(kCalibrationTableBytes / sizeof(std::uint64_t));
    std::uint64_t r = 0x5eed;
    for (std::uint64_t& k : keys) k = r = splitmix64(r);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  const std::vector<std::uint64_t> keys_ = make_keys();
  volatile std::uint64_t state_ = 0;
  volatile std::uint64_t warm_ = 0;
  double total_s_ = 0.0;
  std::uint64_t slices_ = 0;
};

Calibration& calibration() {
  static Calibration c;
  return c;
}

/// The calibration slices taken during one timed span.
struct SpanSlices {
  double s = 0.0;
  int n = 0;
  /// Takes one slice; returns its host seconds, to leave out of the span.
  double take() {
    const double t = calibration().slice();
    s += t;
    ++n;
    return t;
  }
  /// Multiplier from the span's host seconds to calibrated seconds.
  double factor() const { return n == 0 ? 1.0 : kNominalSliceS * n / s; }
};

// -- workloads ----------------------------------------------------------------

// Shared by every workload: RandomWaypoint at up to 4 m/s with a 250 m radio
// range, stepped every 100 ms; data packets every 200 ms (while ON) with a
// mean payload of 256 B; a 1 s drain after the window.
constexpr double kRange = 250.0;
constexpr double kMaxSpeed = 4.0;
constexpr Duration kStep = msec(100);
constexpr Duration kInterval = msec(200);
constexpr std::uint16_t kMeanPayload = 256;
constexpr Duration kDrain = sec(1);

struct Workload {
  std::size_t nodes = 50;
  double field = 1000.0;  // square side, m
  std::string protocol;  // deployed on every node
  std::size_t flows = 10;
  bool on_off = false;  // exponential ON (mean 2 s) / OFF (mean 300 ms)
  bool supervise = false;
  bool replicate = false;
  std::string fault_plan;          // armed at traffic start; empty = none
  std::size_t churn_per_step = 0;  // live enactments per mobility step
  int worlds = 1;                  // independent worlds per run
  Duration warmup = sec(5);
  Duration window{};               // measured traffic window
};

// Nodes 40..49 are cut off from the rest for 2 s: a partition that strands
// relays but leaves every flow endpoint on the big side.
std::string churn_fault_plan() {
  std::ostringstream plan;
  plan << "at 500ms loss 0.3 for 1500ms\n";
  plan << "at 2500ms partition";
  for (int i = 40; i < 50; ++i) plan << ' ' << i;
  plan << " |";
  for (int i = 0; i < 40; ++i) plan << ' ' << i;
  plan << "\nat 4500ms heal\n";
  return plan.str();
}

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  if (name == "olsr-mobile50") {
    w.protocol = "olsr";
    w.worlds = 20;
    w.warmup = sec(8);
    w.window = sec(3);
  } else if (name == "dymo-dense150") {
    w.nodes = 150;
    w.field = 1560.0;
    w.protocol = "dymo";
    w.flows = 40;
    w.on_off = true;
    w.worlds = 4;
    w.window = sec(3);
  } else if (name == "adapt-churn50") {
    // OLSR only: co-deploying DYMO on the same nodes overflows the stack,
    // see "Known defects" in METRICS.md.
    w.protocol = "olsr";
    w.supervise = true;
    w.replicate = true;
    w.fault_plan = churn_fault_plan();
    w.churn_per_step = 5;
    w.worlds = 20;
    w.warmup = sec(8);
    w.window = sec(6);
  } else {
    return std::nullopt;
  }
  return w;
}

// -- reconfigurations -----------------------------------------------------------

enum Kind : int {
  kFisheyeOn, kPowerOn, kMultipathOn, kOptfloodOn,
  kFisheyeOff, kPowerOff, kMultipathOff, kOptfloodOff,
  kKinds
};

constexpr std::array<const char*, kKinds> kKindNames = {
    "fisheye_on", "power_on", "multipath_on", "optflood_on",
    "fisheye_off", "power_off", "multipath_off", "optflood_off"};

/// The enactment cycle a node of `protocol` walks: each variant is applied
/// and removed again before the next one. (Overlapping DYMO variants do not
/// compose: see "Known defects" in METRICS.md.)
std::array<Kind, 4> kind_cycle(const std::string& protocol) {
  if (protocol == "olsr") return {kFisheyeOn, kFisheyeOff, kPowerOn, kPowerOff};
  return {kMultipathOn, kMultipathOff, kOptfloodOn, kOptfloodOff};
}

/// Applies one reconfiguration; returns whether its postcondition holds.
/// Only the enactment call itself is timed (into `us`).
bool enact(mk::core::Manetkit& kit, Kind kind, double& us) {
  namespace proto = mk::proto;
  const Clock::time_point t0 = Clock::now();
  switch (kind) {
    case kFisheyeOn: proto::apply_fisheye(kit); break;
    case kFisheyeOff: proto::remove_fisheye(kit); break;
    case kPowerOn: proto::apply_power_aware(kit); break;
    case kPowerOff: proto::remove_power_aware(kit); break;
    case kMultipathOn: proto::apply_multipath_dymo(kit); break;
    case kMultipathOff: proto::remove_multipath_dymo(kit); break;
    case kOptfloodOn: proto::apply_dymo_optimized_flooding(kit); break;
    case kOptfloodOff: proto::remove_dymo_optimized_flooding(kit); break;
    case kKinds: break;
  }
  us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  switch (kind) {
    case kFisheyeOn: return kit.is_deployed("olsr-fisheye");
    case kFisheyeOff: return !kit.is_deployed("olsr-fisheye");
    case kPowerOn: return proto::is_power_aware(kit);
    case kPowerOff: return !proto::is_power_aware(kit);
    case kMultipathOn: return proto::is_multipath_dymo(kit);
    case kMultipathOff: return !proto::is_multipath_dymo(kit);
    case kOptfloodOn: return proto::is_dymo_optimized_flooding(kit);
    case kOptfloodOff: return !proto::is_dymo_optimized_flooding(kit);
    case kKinds: break;
  }
  return false;
}

// -- measurement helpers ----------------------------------------------------------

/// Log-linear histogram of nanosecond durations (about 6% bucket width), so
/// per-event timing costs no allocation on the hot path.
class NsHistogram {
 public:
  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    std::size_t idx = v;
    if (v >= 32) {
      const int e = std::bit_width(v) - 5;
      idx = static_cast<std::size_t>(e) * 32 + (v >> e);
    }
    ++counts_[std::min(idx, counts_.size() - 1)];
    ++total_;
  }
  void merge(const NsHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  /// Nearest-rank quantile, reported at the bucket's midpoint.
  double quantile_ns(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen < rank) continue;
      if (i < 32) return static_cast<double>(i);
      const std::size_t e = i / 32;
      const double lo = static_cast<double>((i % 32) << e);
      return lo + static_cast<double>(std::uint64_t{1} << e) / 2.0;
    }
    return 0.0;
  }

 private:
  std::array<std::uint64_t, 2048> counts_{};
  std::uint64_t total_ = 0;
};

/// Nearest-rank quantile of a sample set (sorts in place).
double quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(xs.size()))));
  return xs[std::min(rank, xs.size()) - 1];
}

double median(std::vector<double> xs) { return quantile(xs, 0.5); }

std::uint64_t sum_counter(mk::testbed::SimWorld& world, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (world.has_kit(i)) total += world.kit(i).metrics().counter_value(name);
  }
  return total;
}

// -- one world ---------------------------------------------------------------------

/// Outputs fixed by the world's seed: the traced and untraced passes and
/// every repeat must reproduce them exactly.
struct Deterministic {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t sched_events = 0;
  bool operator==(const Deterministic&) const = default;
};

/// Module counters harvested by the traced pass (window deltas).
constexpr std::array<const char*, 15> kKitCounters = {
    "fm.dispatches", "fm.events_routed", "proto.events_delivered",
    "olsr.tc_in", "olsr.triggered_tc", "dymo.rm_in", "dymo.discoveries",
    "dymo.rerr_out", "fm.replace_rollbacks", "sup.guarded_dispatches",
    "sup.faults", "repl.checkpoints_published", "repl.piggybacked",
    "repl.beacons", "sys.parse_errors"};

constexpr std::array<const char*, 5> kMsgTypes = {"HELLO", "TC", "RM",
                                                  "RERR", "REPL"};

struct Trace {
  double mobility_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  double pending_sum = 0.0;
  NsHistogram event_ns;
  std::map<std::string, std::vector<double>> msg_us;  // by message type
  mk::net::MediumStats medium{};
  std::array<std::uint64_t, kKitCounters.size()> counters{};
  std::uint64_t route_adds = 0;
  std::uint64_t route_dels = 0;
  std::uint64_t soft_expiries = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t fault_actions = 0;
  double parse_ns = 0.0;
  double serialize_ns = 0.0;
  std::uint64_t replay_bytes = 0;
};

struct WorldRun {
  Deterministic det;
  std::vector<std::uint64_t> flow_sent;
  std::vector<double> latencies_ms;
  std::uint64_t parse_errors = 0;
  double setup_s = 0.0;
  double setup_factor = 1.0;  // calibration of setup_s
  double window_wall_s = 0.0;
  double window_factor = 1.0;  // calibration of window_wall_s
  double window_cpu_s = 0.0;
  double window_sim_s = 0.0;
  std::uint64_t window_allocs = 0;
  std::array<std::vector<double>, kKinds> enact_us;
  /// Per node that completed its kind cycle at least once: the median over
  /// its completed cycles of the mean host µs per enactment in the cycle.
  std::vector<double> cycle_us;
  double cycle_factor = 1.0;  // calibration of cycle_us
  std::uint64_t enact_attempted = 0;
  std::uint64_t enact_failed = 0;
  std::vector<std::string> errors;
  std::optional<Trace> trace;
};

mk::net::MediumStats medium_delta(const mk::net::MediumStats& a,
                                  const mk::net::MediumStats& b) {
  mk::net::MediumStats d;
  d.control_frames = b.control_frames - a.control_frames;
  d.control_bytes = b.control_bytes - a.control_bytes;
  d.data_frames = b.data_frames - a.data_frames;
  d.data_bytes = b.data_bytes - a.data_bytes;
  d.dropped_loss = b.dropped_loss - a.dropped_loss;
  d.dropped_fault = b.dropped_fault - a.dropped_fault;
  d.dropped_link_lost = b.dropped_link_lost - a.dropped_link_lost;
  d.dropped_node_down = b.dropped_node_down - a.dropped_node_down;
  d.failed_unicasts = b.failed_unicasts - a.failed_unicasts;
  d.link_flips = b.link_flips - a.link_flips;
  d.pair_evals = b.pair_evals - a.pair_evals;
  return d;
}

/// Replays captured control payloads through the PacketBB codec, returning
/// (parse ns, serialize ns) as the median of several passes. Every payload
/// must parse, and re-serialize to the bytes it was parsed from.
std::pair<double, double> replay_codec(
    const std::vector<mk::net::PayloadPtr>& payloads,
    std::vector<std::string>& errors) {
  std::vector<mk::pbb::Packet> parsed;
  parsed.reserve(payloads.size());
  std::vector<double> parse_ns;
  std::vector<double> serialize_ns;
  std::vector<std::uint8_t> out;
  for (int pass = 0; pass < 5; ++pass) {
    parsed.clear();
    const Clock::time_point t0 = Clock::now();
    for (const auto& p : payloads) {
      auto r = mk::pbb::parse(*p);
      if (!r) {
        errors.push_back("captured control payload failed to parse");
        return {0.0, 0.0};
      }
      parsed.push_back(std::move(r.value()));
    }
    const Clock::time_point t1 = Clock::now();
    std::size_t checksum = 0;
    for (const auto& pkt : parsed) {
      mk::pbb::serialize_into(pkt, out);
      checksum += out.size();
    }
    const Clock::time_point t2 = Clock::now();
    parse_ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
    serialize_ns.push_back(
        std::chrono::duration<double, std::nano>(t2 - t1).count());
    if (pass == 0) {
      std::size_t expect = 0;
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        mk::pbb::serialize_into(parsed[i], out);
        if (out != *payloads[i]) {
          errors.push_back("PacketBB round trip changed a captured payload");
          break;
        }
        expect += out.size();
      }
      if (expect != checksum) errors.push_back("PacketBB serialize size drift");
    }
  }
  return {median(parse_ns), median(serialize_ns)};
}

enum class Mode {
  kUntraced,   // the measured run
  kTraced,     // spans, per-event timing, journal and module counters
  kSetupOnly,  // stops at traffic start: one more set-up sample
};

WorldRun run_world(const Workload& w, std::uint64_t world_seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  namespace tb = mk::testbed;
  WorldRun out;
  const Clock::time_point setup_start = Clock::now();

  // Everything the world's hooks capture is declared before the world, so it
  // outlives the journal records its destructor still appends.
  std::uint64_t fired = 0;
  Trace tr;
  bool timing = false;     // inside a traced run_for span
  bool open = false;       // an event of this span is still running
  Clock::time_point last_fire{};
  std::vector<mk::net::PayloadPtr> captured;

  tb::SimWorld world(w.nodes, world_seed);
  mk::net::RandomWaypoint::Params mob;
  mob.width = w.field;
  mob.height = w.field;
  mob.range = kRange;
  mob.max_speed = kMaxSpeed;
  mk::net::MobilityModel& mobility =
      world.enable_mobility(mob, splitmix64(world_seed ^ 0x6d0b1117ull));
  mk::SimScheduler& sched = world.scheduler();

  // Scheduler events are counted in both passes (the tracing-equality check
  // compares them); only the traced pass times them.
  mk::obs::Journal* journal = nullptr;
  if (traced) {
    journal = &world.enable_tracing();
    // enable_tracing() installed the journal's kTimerFire hook; this one
    // replaces it and chains the same record before timing the event.
    sched.set_fire_hook([&](mk::TimerId id, mk::TimePoint at) {
      journal->append({mk::obs::RecordKind::kTimerFire, 0xffffffffu, at.us,
                       static_cast<std::uint64_t>(id), 0, 0});
      ++fired;
      if (!timing) return;
      const Clock::time_point now = Clock::now();
      if (open) {
        tr.event_ns.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now - last_fire)
                            .count());
      }
      open = true;
      last_fire = now;
      ++tr.events;
      tr.pending_sum += static_cast<double>(sched.pending());
    });
    journal->add_observer([&tr](const mk::obs::Record& r) {
      switch (r.kind) {
        case mk::obs::RecordKind::kRouteAdd: ++tr.route_adds; break;
        case mk::obs::RecordKind::kRouteDel: ++tr.route_dels; break;
        case mk::obs::RecordKind::kSoftExpire: ++tr.soft_expiries; break;
        default: break;
      }
    });
  } else {
    sched.set_fire_hook([&fired](mk::TimerId, mk::TimePoint) { ++fired; });
  }

  if (w.supervise) world.enable_supervision();
  if (w.replicate) world.enable_replication();
  world.deploy_all(w.protocol);
  const std::array<Kind, 4> cycle = kind_cycle(w.protocol);
  SpanSlices setup_slices;
  for (Duration t{0}; t < w.warmup; t += kStep) {
    world.step_mobility(kStep);
    setup_slices.take();
  }

  if (!w.fault_plan.empty()) {
    world.apply_fault_plan(mk::fault::FaultPlan::parse(w.fault_plan),
                           splitmix64(world_seed ^ 0xfa0175eedull));
  }

  std::vector<tb::FlowSpec> flows;
  for (std::size_t i = 0; i < w.flows; ++i) {
    tb::FlowSpec f;
    f.src = i;
    f.dst = (i + w.nodes / 2) % w.nodes;
    f.interval = kInterval;
    // Per-flow sizes spread +-75% around the mean, so latency quantiles
    // are not pinned to whole multiples of one per-hop delay.
    f.payload = static_cast<std::uint16_t>(
        kMeanPayload / 4 + splitmix64(world_seed + i) % (kMeanPayload * 3 / 2 + 1));
    f.on_off = w.on_off;
    f.on_off_params.mean_on = sec(2);
    f.on_off_params.mean_off = msec(300);
    flows.push_back(f);
  }
  tb::TrafficMatrix traffic(world, std::move(flows),
                            splitmix64(world_seed ^ 0x0f10f10f1ull));

  // Control payloads delivered in the window's run_for spans, for the codec
  // replay.
  // The capture filter returns the default verdict, or chains the fault
  // injector's verdict when a plan is armed, so it changes no delivery.
  constexpr std::size_t kCaptureCap = 20000;
  if (traced) {
    captured.reserve(kCaptureCap);
    mk::fault::FaultInjector* inj = world.injector();
    world.medium().set_fault_filter(
        [&captured, &timing, inj](const mk::net::Frame& f, mk::net::Addr to) {
          if (timing && f.kind == mk::net::FrameKind::kControl &&
              f.payload != nullptr && captured.size() < kCaptureCap &&
              (captured.empty() || captured.back() != f.payload)) {
            captured.push_back(f.payload);
          }
          return inj != nullptr ? inj->filter(f, to) : mk::net::FaultVerdict{};
        });
    for (std::size_t i = 0; i < world.size(); ++i) {
      world.kit(i).system().enable_profiling(true);
    }
  }

  out.setup_s = seconds_between(setup_start, Clock::now()) - setup_slices.s;
  out.setup_factor = setup_slices.factor();
  if (mode == Mode::kSetupOnly) return out;

  // -- measured window ---------------------------------------------------------
  const mk::net::MediumStats medium0 = world.medium().stats();
  std::array<std::uint64_t, kKitCounters.size()> counters0{};
  for (std::size_t c = 0; c < kKitCounters.size(); ++c) {
    counters0[c] = sum_counter(world, kKitCounters[c]);
  }
  const std::uint64_t fired0 = fired;
  const std::uint64_t adds0 = tr.route_adds;
  const std::uint64_t dels0 = tr.route_dels;
  const std::uint64_t expiries0 = tr.soft_expiries;
  const std::uint64_t records0 = journal != nullptr ? journal->total() : 0;
  const std::uint64_t faults0 =
      world.injector() != nullptr ? world.injector()->actions_fired() : 0;

  traffic.start();
  const mk::TimePoint sim0 = world.now();
  const std::uint64_t allocs0 = mk::memtrack::snapshot().total_allocs;
  const double cpu0 = thread_cpu_s();
  const Clock::time_point window_start = Clock::now();

  SpanSlices window_slices;
  std::uint64_t enactment = 0;
  std::vector<std::pair<double, std::size_t>> node_cycle(world.size());
  std::vector<std::vector<double>> node_cycle_us(world.size());
  auto do_enact = [&](std::size_t node, Kind kind) {
    double us = 0.0;
    ++out.enact_attempted;
    bool ok = false;
    try {
      ok = enact(world.kit(node), kind, us);
    } catch (...) {
      out.errors.push_back(std::string(kKindNames[kind]) + " threw: " +
                           mk::oc::describe_exception(std::current_exception()));
    }
    if (!ok) {
      ++out.enact_failed;
      out.errors.push_back(std::string(kKindNames[kind]) +
                           " postcondition failed on node " +
                           std::to_string(node));
    }
    out.enact_us[kind].push_back(us);
    auto& [sum, n] = node_cycle[node];
    sum += us;
    if (++n == cycle.size()) {
      node_cycle_us[node].push_back(sum / static_cast<double>(n));
      node_cycle[node] = {0.0, 0};
    }
  };

  for (Duration t{0}; t < w.window; t += kStep) {
    if (traced) {
      const Clock::time_point m0 = Clock::now();
      mobility.step(kStep);
      const Clock::time_point m1 = Clock::now();
      timing = true;
      sched.run_for(kStep);
      const Clock::time_point r1 = Clock::now();
      if (open) {
        tr.event_ns.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            r1 - last_fire)
                            .count());
      }
      timing = open = false;
      tr.mobility_s += seconds_between(m0, m1);
      tr.run_s += seconds_between(m1, r1);
    } else {
      // The same two calls SimWorld::step_mobility makes.
      mobility.step(kStep);
      sched.run_for(kStep);
    }
    for (std::size_t k = 0; k < w.churn_per_step; ++k, ++enactment) {
      // Node-major rotation: every node walks its kind cycle in order.
      do_enact(enactment % w.nodes,
               cycle[(enactment / w.nodes) % cycle.size()]);
    }
    window_slices.take();
  }

  const Clock::time_point window_end = Clock::now();
  out.window_cpu_s = thread_cpu_s() - cpu0 - window_slices.s;
  out.window_allocs = mk::memtrack::snapshot().total_allocs - allocs0;
  out.window_wall_s = seconds_between(window_start, window_end) - window_slices.s;
  out.window_factor = window_slices.factor();
  out.cycle_factor = out.window_factor;
  out.window_sim_s = static_cast<double>((world.now() - sim0).count()) / 1e6;

  const mk::net::MediumStats medium1 = world.medium().stats();
  out.det.sched_events = fired - fired0;
  out.det.control_frames = medium1.control_frames - medium0.control_frames;
  out.det.control_bytes = medium1.control_bytes - medium0.control_bytes;

  if (traced) {
    tr.medium = medium_delta(medium0, medium1);
    for (std::size_t c = 0; c < kKitCounters.size(); ++c) {
      tr.counters[c] = sum_counter(world, kKitCounters[c]) - counters0[c];
    }
    tr.route_adds -= adds0;
    tr.route_dels -= dels0;
    tr.soft_expiries -= expiries0;
    tr.journal_records = journal->total() - records0;
    tr.fault_actions =
        (world.injector() != nullptr ? world.injector()->actions_fired() : 0) -
        faults0;
    for (std::size_t i = 0; i < world.size(); ++i) {
      mk::core::SystemCf& sys = world.kit(i).system();
      sys.enable_profiling(false);
      for (const auto& [type, samples] : sys.processing_times()) {
        std::vector<double>& dst = tr.msg_us[type];
        for (double ms : samples.values()) dst.push_back(ms * 1e3);
      }
    }
  }

  traffic.stop();
  world.run_for(kDrain);

  out.det.sent = traffic.total_sent();
  out.det.received = traffic.total_received();
  for (const tb::FlowStats& f : traffic.all_flow_stats()) {
    out.flow_sent.push_back(f.sent);
  }
  out.latencies_ms = traffic.merged_latencies_ms().values();
  out.parse_errors = sum_counter(world, "sys.parse_errors");

  // Reconfiguration probe for workloads without live churn: once traffic
  // has drained, every node walks its kind cycle five times, so a host
  // stall during one walk does not set the node's figure.
  if (w.churn_per_step == 0) {
    SpanSlices probe_slices;
    probe_slices.take();
    for (std::size_t i = 0; i < world.size(); ++i) {
      for (int pass = 0; pass < 5; ++pass) {
        for (Kind k : cycle) do_enact(i, k);
      }
      probe_slices.take();
    }
    out.cycle_factor = probe_slices.factor();
  }
  for (const std::vector<double>& c : node_cycle_us) {
    if (!c.empty()) out.cycle_us.push_back(median(c));
  }

  if (traced) {
    const auto [parse_ns, serialize_ns] = replay_codec(captured, out.errors);
    tr.parse_ns = parse_ns;
    tr.serialize_ns = serialize_ns;
    for (const auto& p : captured) tr.replay_bytes += p->size();
    out.trace = std::move(tr);
  }
  return out;
}

// -- aggregation & output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      o.push_back(' ');
      continue;
    }
    o.push_back(c);
  }
  return o;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1234;
  double seconds = 30.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty()) return std::nullopt;
  return a;
}

/// One progress line per world run, on stderr.
void report_world(std::size_t k, const std::string& protocol,
                  const char* tag, const WorldRun& r) {
  std::fprintf(stderr,
               "world %zu %s%s: setup %.4f s, window %.4f s wall (%.4f s CPU) "
               "for %.1f sim-s, %llu/%llu delivered, %llu enactments\n",
               k, protocol.c_str(), tag, r.setup_s,
               r.window_wall_s, r.window_cpu_s, r.window_sim_s,
               static_cast<unsigned long long>(r.det.received),
               static_cast<unsigned long long>(r.det.sent),
               static_cast<unsigned long long>(r.enact_attempted));
}

/// Checks every world's outputs; appends a reason per violation.
void check_world(const WorldRun& r, std::vector<std::string>& errors) {
  for (const std::string& e : r.errors) errors.push_back(e);
  for (std::size_t i = 0; i < r.flow_sent.size(); ++i) {
    if (r.flow_sent[i] == 0) {
      errors.push_back("flow " + std::to_string(i) + " sent no packets");
    }
  }
  if (r.det.sent == 0 || r.det.received == 0 || r.det.received > r.det.sent) {
    errors.push_back("pdr outside (0, 1]: " + std::to_string(r.det.received) +
                     "/" + std::to_string(r.det.sent));
  }
  if (r.parse_errors != 0) {
    errors.push_back("core.parse_errors = " + std::to_string(r.parse_errors));
  }
}

int run(const Args& args) {
  const std::optional<Workload> found = workload_named(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  // The traced pass covers the first half of the worlds, twice over (once
  // untraced for the equality check and the overhead baseline).
  const int worlds = args.trace ? (w.worlds + 1) / 2 : w.worlds;
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < worlds; ++k) {
    seeds.push_back(
        splitmix64(args.seed * 1000003ull + static_cast<std::uint64_t>(k)));
  }

  calibration().slice();  // the table is resident before the first world
  const Clock::time_point start = Clock::now();
  std::vector<std::string> errors;
  std::vector<WorldRun> first;  // one untraced run per world
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    first.push_back(run_world(w, seeds[k], Mode::kUntraced));
    report_world(k, w.protocol, "", first.back());
    check_world(first.back(), errors);
  }

  // Per-world timing samples (first pass plus repeats), uncalibrated and
  // calibrated.
  struct Timings {
    std::vector<std::vector<double>> wall, setup;
    std::vector<double> cycle_us;
  };
  Timings raw{std::vector<std::vector<double>>(seeds.size()),
              std::vector<std::vector<double>>(seeds.size()), {}};
  Timings cal = raw;
  std::size_t setups = 0;
  auto add_timing = [&](std::size_t k, const WorldRun& r) {
    if (r.window_sim_s > 0.0) {
      raw.wall[k].push_back(r.window_wall_s);
      cal.wall[k].push_back(r.window_wall_s * r.window_factor);
    }
    raw.setup[k].push_back(r.setup_s);
    cal.setup[k].push_back(r.setup_s * r.setup_factor);
    ++setups;
    for (double us : r.cycle_us) {
      raw.cycle_us.push_back(us);
      cal.cycle_us.push_back(us * r.cycle_factor);
    }
  };
  for (std::size_t k = 0; k < seeds.size(); ++k) add_timing(k, first[k]);

  std::vector<WorldRun> traced;
  if (args.trace) {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      traced.push_back(run_world(w, seeds[k], Mode::kTraced));
      report_world(k, w.protocol, " traced", traced.back());
      check_world(traced.back(), errors);
      if (!(traced.back().det == first[k].det)) {
        errors.push_back("traced run of world " + std::to_string(k) +
                         " diverged from the untraced run");
      }
    }
  } else {
    // Extra set-ups (world built, deployed and warmed up, then discarded)
    // until the set-up median has kMinSetups samples; then whole worlds
    // again, in turn, while the next one fits in the time left.
    constexpr std::size_t kMinSetups = 16;
    for (std::size_t k = 0; setups < kMinSetups;
         k = (k + 1) % seeds.size()) {
      add_timing(k, run_world(w, seeds[k], Mode::kSetupOnly));
    }
    const double per_world = seconds_between(start, Clock::now()) /
                             static_cast<double>(seeds.size());
    for (std::size_t k = 0;
         seconds_between(start, Clock::now()) + per_world <= args.seconds;
         k = (k + 1) % seeds.size()) {
      WorldRun again = run_world(w, seeds[k], Mode::kUntraced);
      report_world(k, w.protocol, " repeat", again);
      check_world(again, errors);
      if (!(again.det == first[k].det)) {
        errors.push_back("repeat of world " + std::to_string(k) +
                         " diverged from its first run");
      }
      add_timing(k, again);
    }
  }

  // Deterministic outputs pooled over the first pass.
  std::uint64_t sent = 0, received = 0, control_bytes = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> latencies;
  double sim_s = 0.0;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    const WorldRun& r = first[k];
    sent += r.det.sent;
    received += r.det.received;
    control_bytes += r.det.control_bytes;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    attempted += r.det.sent + r.enact_attempted;
    failed += (r.det.sent - std::min(r.det.sent, r.det.received)) + r.enact_failed;
    sim_s += r.window_sim_s;
  }
  // Each world's window time is the median of its runs. Fleets differ in
  // set-up cost by an order of magnitude, so the set-up figure is each
  // world's median set-up, averaged over the worlds.
  auto wall_s = [&](Timings& t) {
    double sum = 0.0;
    for (const std::vector<double>& xs : t.wall) sum += median(xs);
    return sum;
  };
  auto setup_s = [&](Timings& t) {
    double sum = 0.0;
    for (const std::vector<double>& xs : t.setup) sum += median(xs);
    return sum / static_cast<double>(seeds.size());
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::size_t n_lat = latencies.size();
    const std::size_t n_cycles = cal.cycle_us.size();
    const double rss_mb = peak_rss_mb();
    if (rss_mb <= 0.0) errors.push_back("no VmHWM in /proc/self/status");
    metrics = {
        {"setup_s", setup_s(cal), "s"},
        {"sim_s_per_cal_s", sim_s / wall_s(cal), "sim_s/s"},
        {"peak_rss_mb",
         rss_mb - static_cast<double>(kCalibrationTableBytes >> 20), "MB"},
        {"pdr", static_cast<double>(received) / static_cast<double>(sent), "ratio"},
        {"latency_p50_ms", quantile(latencies, 0.50), "ms"},
        {"latency_p99_ms", quantile(latencies, 0.99), "ms"},
        {"control_bytes_per_delivery",
         static_cast<double>(control_bytes) /
             static_cast<double>(std::max<std::uint64_t>(received, 1)),
         "bytes/pkt"},
        {"reconfig_us_p50", quantile(cal.cycle_us, 0.50), "us"},
        {"reconfig_us_p99", quantile(cal.cycle_us, 0.99), "us"},
    };
    std::fprintf(stderr,
                 "samples: latency=%zu node-cycles=%zu worlds=%zu setups=%zu\n",
                 n_lat, n_cycles, seeds.size(), setups);
    std::fprintf(stderr,
                 "uncalibrated: setup_s=%.6g sim_s_per_wall_s=%.6g "
                 "reconfig_us_p50=%.6g reconfig_us_p99=%.6g\n",
                 setup_s(raw), sim_s / wall_s(raw), quantile(raw.cycle_us, 0.50),
                 quantile(raw.cycle_us, 0.99));
  } else {
    Trace t;
    std::uint64_t allocs = 0;
    double untraced_wall = 0.0, traced_wall = 0.0;
    std::array<std::vector<double>, kKinds> kind_us;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const Trace& x = *traced[k].trace;
      t.mobility_s += x.mobility_s;
      t.run_s += x.run_s;
      t.events += x.events;
      t.pending_sum += x.pending_sum;
      t.event_ns.merge(x.event_ns);
      for (const auto& [type, us] : x.msg_us) {
        t.msg_us[type].insert(t.msg_us[type].end(), us.begin(), us.end());
      }
      for (std::size_t c = 0; c < kKitCounters.size(); ++c) {
        t.counters[c] += x.counters[c];
      }
      t.route_adds += x.route_adds;
      t.route_dels += x.route_dels;
      t.soft_expiries += x.soft_expiries;
      t.journal_records += x.journal_records;
      t.fault_actions += x.fault_actions;
      t.parse_ns += x.parse_ns;
      t.serialize_ns += x.serialize_ns;
      t.replay_bytes += x.replay_bytes;
      allocs += first[k].window_allocs;
      untraced_wall += first[k].window_wall_s;
      traced_wall += traced[k].window_wall_s;
      for (int kind = 0; kind < kKinds; ++kind) {
        kind_us[kind].insert(kind_us[kind].end(), traced[k].enact_us[kind].begin(),
                             traced[k].enact_us[kind].end());
      }
    }
    // Medium counters summed over worlds.
    mk::net::MediumStats ms{};
    for (const WorldRun& r : traced) {
      const mk::net::MediumStats& x = r.trace->medium;
      ms.control_frames += x.control_frames;
      ms.data_frames += x.data_frames;
      ms.dropped_loss += x.dropped_loss;
      ms.dropped_fault += x.dropped_fault;
      ms.dropped_link_lost += x.dropped_link_lost;
      ms.dropped_node_down += x.dropped_node_down;
      ms.link_flips += x.link_flips;
      ms.pair_evals += x.pair_evals;
    }
    auto counter = [&t](const char* name) {
      for (std::size_t c = 0; c < kKitCounters.size(); ++c) {
        if (std::strcmp(kKitCounters[c], name) == 0) {
          return static_cast<double>(t.counters[c]);
        }
      }
      return 0.0;
    };
    double msg_proc_us = 0.0;
    for (const auto& [type, us] : t.msg_us) {
      for (double v : us) msg_proc_us += v;
    }
    const double msg_proc_s = msg_proc_us / 1e6;
    const double tc_in = counter("olsr.tc_in");
    metrics = {
        {"testbed.mobility_s", t.mobility_s, "s"},
        {"testbed.run_s", t.run_s, "s"},
        {"util.sched.events", static_cast<double>(t.events), "count"},
        {"util.sched.pending_mean",
         t.events == 0 ? 0.0 : t.pending_sum / static_cast<double>(t.events),
         "count"},
        {"util.sched.event_us_p50", t.event_ns.quantile_ns(0.50) / 1e3, "us"},
        {"util.sched.event_us_p99", t.event_ns.quantile_ns(0.99) / 1e3, "us"},
        {"util.sched.self_s", t.run_s - msg_proc_s, "s"},
        {"mem.allocs_per_sim_s", static_cast<double>(allocs) / sim_s, "count/sim_s"},
        {"net.control_frames", static_cast<double>(ms.control_frames), "count"},
        {"net.data_frames", static_cast<double>(ms.data_frames), "count"},
        {"net.drops",
         static_cast<double>(ms.dropped_loss + ms.dropped_fault +
                             ms.dropped_link_lost + ms.dropped_node_down),
         "count"},
        {"net.pair_evals", static_cast<double>(ms.pair_evals), "count"},
        {"net.link_flips", static_cast<double>(ms.link_flips), "count"},
        {"net.route_adds", static_cast<double>(t.route_adds), "count"},
        {"net.route_dels", static_cast<double>(t.route_dels), "count"},
        {"packetbb.parse_ns_per_byte",
         t.replay_bytes == 0 ? 0.0 : t.parse_ns / static_cast<double>(t.replay_bytes),
         "ns/B"},
        {"packetbb.serialize_ns_per_byte",
         t.replay_bytes == 0 ? 0.0
                             : t.serialize_ns / static_cast<double>(t.replay_bytes),
         "ns/B"},
        {"core.parse_errors", counter("sys.parse_errors"), "count"},
        {"core.msg_proc_s", msg_proc_s, "s"},
    };
    for (const char* type : kMsgTypes) {
      std::vector<double>& us = t.msg_us[type];
      metrics.push_back({std::string("core.msg_proc_us_p50.") + type,
                         quantile(us, 0.50), "us"});
      metrics.push_back({std::string("core.msg_proc_us_p99.") + type,
                         quantile(us, 0.99), "us"});
    }
    const std::vector<Metric> rest = {
        {"core.fm_dispatches", counter("fm.dispatches"), "count"},
        {"core.fm_events_routed", counter("fm.events_routed"), "count"},
        {"core.events_delivered", counter("proto.events_delivered"), "count"},
        {"core.soft_expiries", static_cast<double>(t.soft_expiries), "count"},
        {"olsr.tc_in", tc_in, "count"},
        {"olsr.triggered_tc", counter("olsr.triggered_tc"), "count"},
        {"dymo.rm_in", counter("dymo.rm_in"), "count"},
        {"dymo.discoveries", counter("dymo.discoveries"), "count"},
        {"dymo.rerr_out", counter("dymo.rerr_out"), "count"},
        {"olsr.route_changes_per_tc",
         tc_in == 0.0 ? 0.0
                      : static_cast<double>(t.route_adds + t.route_dels) / tc_in,
         "ratio"},
        {"core.fm_replace_rollbacks", counter("fm.replace_rollbacks"), "count"},
        {"supervision.guarded_dispatches", counter("sup.guarded_dispatches"),
         "count"},
        {"supervision.faults", counter("sup.faults"), "count"},
        {"replication.checkpoints_published",
         counter("repl.checkpoints_published"), "count"},
        {"replication.piggybacked", counter("repl.piggybacked"), "count"},
        {"replication.beacons", counter("repl.beacons"), "count"},
        {"fault.actions_fired", static_cast<double>(t.fault_actions), "count"},
        {"net.drops_fault", static_cast<double>(ms.dropped_fault), "count"},
        {"obs.journal_records", static_cast<double>(t.journal_records), "count"},
        {"obs.trace_overhead", traced_wall / untraced_wall - 1.0, "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    for (int kind = 0; kind < kKinds; ++kind) {
      metrics.push_back({std::string("reconfig.us_p50.") + kKindNames[kind],
                         quantile(kind_us[kind], 0.50), "us"});
    }
  }

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors.push_back(m.name + " is not finite");
      m.value = 0.0;  // JSON has no NaN
    }
  }
  for (const std::string& e : errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("{\"provenance\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"calibration\": {\"slices\": %llu, \"mean_slice_us\": %.4f, "
              "\"nominal_slice_us\": %.4f, \"factor\": %.6f}, "
              "\"optimized\": %s, \"sanitized\": %s}}\n",
              json_escape(__VERSION__).c_str(), json_escape(PB_BUILD_TYPE).c_str(),
              static_cast<unsigned long long>(calibration().slices()),
              calibration().mean_slice_s() * 1e6, kNominalSliceS * 1e6,
              kNominalSliceS / calibration().mean_slice_s(),
#ifdef __OPTIMIZE__
              "true",
#else
              "false",
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
              "true"
#else
              "false"
#endif
  );
  print_result(errors.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  const std::optional<pb::Args> args = pb::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: mk_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  try {
    return pb::run(*args);
  } catch (...) {
    std::fprintf(stderr, "benchmark aborted: %s\n",
                 mk::oc::describe_exception(std::current_exception()).c_str());
    return 1;
  }
}
