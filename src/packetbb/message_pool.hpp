// Pooled PacketBB message bodies ("pbb.message", a mem::SlotPool).
//
// Every shared message in the event hot path (Event::set_msg, the COW clone
// in Event::mutable_msg, the System CF's RX demux) funnels through
// acquire_message().
//
// Recycled slots follow the serialize_into buffer-recycling discipline: the
// scalar shell is reset (and poisoned 0xA5 while free), but the nested
// tlvs/addr_blocks vectors keep their element count AND capacity from the
// previous tenant — "stale warm". A caller must therefore fully overwrite
// the message (copy-assign from a parsed scratch, or a *_into builder that
// slot-fills and trims every vector) before the message escapes.
#pragma once

#include <cstddef>
#include <memory>

#include "packetbb/packetbb.hpp"

namespace mk::pbb {

/// A recycled (or, under MemBackend::kHeap, freshly heap-allocated) Message.
/// Contents are unspecified — see the stale-warm contract above.
std::shared_ptr<Message> acquire_message();

/// Live handles not yet returned to the pool (kPool acquires only).
std::int64_t message_pool_outstanding();

/// Frees every slot currently sitting in the free list (test hygiene; live
/// handles are unaffected and still return to the pool on release).
void message_pool_trim();

}  // namespace mk::pbb
