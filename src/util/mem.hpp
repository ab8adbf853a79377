// Memory-discipline primitives for the allocation-free steady state.
//
// Four pieces, shared by every pool in the tree (pbb.message, core.event,
// net.payload, executor batch pools):
//
//  * MemBackend — a process-wide switch between pooled allocation (kPool,
//    the default) and plain heap allocation (kHeap). kHeap is the
//    conformance oracle: every pool's acquire path degenerates to
//    make_shared, so pooled-vs-heap runs must produce bit-identical ordered
//    journal digests (third instance of the wheel/heap and grid/reference
//    oracle pattern).
//
//  * Poison constants — freed pool objects have their scalar shell filled
//    with 0xA5 and a canary word stamped, so use-after-free through a stale
//    handle trips asserts (and the poison/fuzz test) instead of silently
//    reading recycled state. Nested vectors are deliberately kept "stale
//    warm": their buffers stay allocated so the next acquire reuses the
//    capacity. Acquirers must therefore fully overwrite every field.
//
//  * BlockPool / BlockAllocator — size-class free lists for small control
//    structures (shared_ptr control blocks chiefly), so a pooled handle's
//    *control block* is recycled too and acquire is allocation-free in
//    steady state.
//
//  * SlotPool<T> — the object pool itself: a free list of T slots handed
//    out as shared_ptr<T>. A module supplies only its reset and poison
//    steps.
//
// Pools register a PoolStats record under a stable name; pool_snapshots()
// feeds the mem.pool.* gauges (see obs) so leaked handles are observable.
//
// NOTE: nothing in this header (or any pool built on it) may reference
// mk::memtrack — the bench defines its own counting operator new and must
// not pull memtrack's interposer out of the mk_util archive.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/assert.hpp"

namespace mk::mem {

/// Which allocation discipline pooled objects use. kHeap keeps the plain
/// make_shared path alive as the digest-parity oracle.
enum class MemBackend {
  kPool,  // slab/free-list recycling, poisoned frees, pooled control blocks
  kHeap,  // plain heap: the original allocation behaviour (conformance)
};

MemBackend backend();
void set_backend(MemBackend b);

/// RAII backend override for tests (restores the previous backend).
class BackendGuard {
 public:
  explicit BackendGuard(MemBackend b) : prev_(backend()) { set_backend(b); }
  ~BackendGuard() { set_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  MemBackend prev_;
};

/// Freed pool objects are filled with this byte...
inline constexpr std::uint8_t kPoisonByte = 0xA5;
/// ...and stamped with this canary, cleared again on acquire. A live handle
/// must never observe either.
inline constexpr std::uint64_t kPoisonCanary = 0xA5A5'A5A5'A5A5'A5A5ull;

/// Hit/miss/outstanding accounting every pool exposes. `hits` counts
/// free-list reuse, `misses` counts fresh heap growth (warm-up), and
/// `outstanding` is live acquires minus releases — it must return to zero
/// when all handles are dropped, or a handle leaked.
struct PoolStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::int64_t> outstanding{0};
};

/// Registers `stats` under `name` (idempotent per pointer; `name` must have
/// static storage duration). Called once from each pool's lazy init.
void register_pool(const char* name, const PoolStats* stats);

struct PoolSnapshot {
  const char* name;
  std::uint64_t hits;
  std::uint64_t misses;
  std::int64_t outstanding;
};

/// Point-in-time view of every registered pool, sorted by name.
std::vector<PoolSnapshot> pool_snapshots();

// -- size-class block pool ----------------------------------------------------

/// Allocates `n` bytes from the size-class free lists (≤ kBlockMaxBytes;
/// larger requests fall through to ::operator new). Blocks are recycled by
/// block_free and poisoned while free.
void* block_alloc(std::size_t n);
void block_free(void* p, std::size_t n) noexcept;

inline constexpr std::size_t kBlockClassBytes = 16;
inline constexpr std::size_t kBlockMaxBytes = 256;

/// std-allocator adaptor over the block pool, used for pooled shared_ptr
/// control blocks. Stateless: all instances are interchangeable.
template <class T>
struct BlockAllocator {
  using value_type = T;

  BlockAllocator() = default;
  template <class U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(block_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    block_free(p, n * sizeof(T));
  }

  friend bool operator==(const BlockAllocator&, const BlockAllocator&) {
    return true;
  }
};

// -- object pool --------------------------------------------------------------

/// Under kPool, a released slot is poisoned, canary-stamped and listed
/// free; acquire reuses it after a canary check and `reset` (a fresh slot
/// is value-initialised). The deleter returns the slot and the control
/// block comes from BlockAllocator, so a warm cycle allocates nothing.
/// Under kHeap acquire is plain make_shared<T>().
template <class T>
class SlotPool {
 public:
  using Step = void (*)(T&);

  /// Registers PoolStats under `name` (static storage duration).
  SlotPool(const char* name, Step reset, Step poison)
      : reset_(reset), poison_(poison) {
    register_pool(name, &stats_);
  }
  SlotPool(const SlotPool&) = delete;  // handles' deleters hold its address
  SlotPool& operator=(const SlotPool&) = delete;

  std::shared_ptr<T> acquire() {
    if (backend() == MemBackend::kHeap) return std::make_shared<T>();
    Slot* s;
    {
      std::lock_guard lock(mu_);
      s = free_head_;
      if (s != nullptr) free_head_ = s->next;
    }
    if (s != nullptr) {
      MK_ASSERT(s->canary == kPoisonCanary, "pool slot corrupted");
      s->canary = 0;
      s->next = nullptr;
      reset_(s->value);
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      s = new Slot();
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.outstanding.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<T>(&s->value, Deleter{this, s},
                              BlockAllocator<T>{});
  }

  /// Live handles not yet returned (kPool acquires only).
  std::int64_t outstanding() const {
    return stats_.outstanding.load(std::memory_order_relaxed);
  }

  /// Frees the free list (test hygiene); live handles still return.
  void trim() {
    Slot* head;
    {
      std::lock_guard lock(mu_);
      head = free_head_;
      free_head_ = nullptr;
    }
    while (head != nullptr) {
      Slot* next = head->next;
      delete head;
      head = next;
    }
  }

 private:
  struct Slot {
    T value;
    std::uint64_t canary = 0;
    Slot* next = nullptr;
  };
  struct Deleter {
    SlotPool* pool;
    Slot* slot;
    void operator()(T*) const noexcept { pool->release(slot); }
  };

  void release(Slot* s) noexcept {
    poison_(s->value);
    s->canary = kPoisonCanary;
    {
      std::lock_guard lock(mu_);
      s->next = free_head_;
      free_head_ = s;
    }
    stats_.outstanding.fetch_sub(1, std::memory_order_relaxed);
  }

  Step reset_;
  Step poison_;
  std::mutex mu_;
  Slot* free_head_ = nullptr;
  PoolStats stats_;
};

}  // namespace mk::mem

namespace mk {
using mem::MemBackend;
}  // namespace mk
