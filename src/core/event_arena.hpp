// Per-process arena of recycled ev::Event objects ("core.event", a
// mem::SlotPool).
//
// Steady-state dispatch passes events by value on the stack, but every place
// that needs a *heap* event — deferred delivery, cross-thread hand-off,
// batched executors, test drivers — goes through acquire_event() instead of
// make_shared. The attr flat vector keeps its capacity across tenants.
//
// Unlike pbb::acquire_message, events come back *reset*: type
// kInvalidEventType, no message, no attrs (Event::reset) — an event's
// logical state is small, so there is no stale-warm contract to honour.
#pragma once

#include <cstdint>
#include <memory>

#include "events/event.hpp"

namespace mk::core {

/// A reset, recycled event (fresh heap event under MemBackend::kHeap).
std::shared_ptr<ev::Event> acquire_event(
    ev::EventTypeId type = ev::kInvalidEventType);

/// Live handles not yet returned to the arena (kPool acquires only).
std::int64_t event_arena_outstanding();

/// Frees every slot currently in the free list (test hygiene).
void event_arena_trim();

}  // namespace mk::core
