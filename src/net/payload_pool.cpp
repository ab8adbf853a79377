#include "net/payload_pool.hpp"

#include "util/mem.hpp"

namespace mk::net {

namespace {

/// Poisons the bytes in place (capacity survives; size is dropped on the
/// next acquire). A stale reader sees 0xA5 filler, not the last packet.
void poison(PayloadBuffer& buf) {
  for (auto& b : buf) b = mem::kPoisonByte;
}

mem::SlotPool<PayloadBuffer>& pool() {
  static mem::SlotPool<PayloadBuffer> p(
      "net.payload", [](PayloadBuffer& buf) { buf.clear(); }, poison);
  return p;
}

}  // namespace

std::shared_ptr<PayloadBuffer> acquire_payload() { return pool().acquire(); }

std::int64_t payload_pool_outstanding() { return pool().outstanding(); }

void payload_pool_trim() { pool().trim(); }

}  // namespace mk::net
