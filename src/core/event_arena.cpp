#include "core/event_arena.hpp"

#include "util/mem.hpp"

namespace mk::core {

namespace {

// Address-shaped poison: both halves of the canary word, recognisable in a
// debugger and asserted against in the poison/fuzz test.
constexpr pbb::Addr kPoisonAddr = 0xA5A5A5A5u;

/// A stale handle sees 0xA5 addresses and no message, never the recycled
/// tenant's payload. reset() drops the message ref (returning it to its own
/// pool) and keeps the attr vector's capacity.
void poison(ev::Event& e) {
  e.reset();
  e.from = kPoisonAddr;
  e.local = kPoisonAddr;
}

mem::SlotPool<ev::Event>& arena() {
  // No reuse step: acquire_event resets every slot to its new type itself.
  static mem::SlotPool<ev::Event> a("core.event", [](ev::Event&) {}, poison);
  return a;
}

}  // namespace

std::shared_ptr<ev::Event> acquire_event(ev::EventTypeId type) {
  std::shared_ptr<ev::Event> e = arena().acquire();
  e->reset(type);
  return e;
}

std::int64_t event_arena_outstanding() { return arena().outstanding(); }

void event_arena_trim() { arena().trim(); }

}  // namespace mk::core
