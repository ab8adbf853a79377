// Content versions for S elements whose contents feed a memoised derived
// computation (the OLSR route recompute). An element restamps its version on
// every content change; a consumer keeps the (element pointer, version) pair
// it last computed from and skips the work while the pair is unchanged.
#pragma once

#include <atomic>
#include <cstdint>

namespace mk::core {

/// Next value of the process-wide monotonic version counter. Drawing every
/// stamp from one counter means a (pointer, version) pair never repeats — not
/// even for a replaced or rehydrated element allocated at a reused address.
inline std::uint64_t next_state_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace mk::core
