// Generation-checked slot map: the engine's pooled-storage primitive.
//
// A SlotMap hands out dense integer slots from a slab, recycling freed
// slots through an intrusive free list. Every slot carries a generation
// counter, bumped on release; a Handle is {slot, generation}, so a stale
// handle — one whose slot has since been released or re-acquired — is
// rejected by a single compare instead of a hash lookup. This is the
// classic slot-map / versioned-index design from DES engines and entity
// systems, and it replaces the `unordered_map<id, state>` pattern on every
// hot path (scheduler actions, in-flight transport copies).
//
// Recycle semantics — deliberate, and the reason the engine is
// allocation-free in steady state: values are default-constructed once when
// the slab grows and are NOT destroyed on Release. Acquire returns the slot
// with the previous tenant's value still in place, so members that own heap
// capacity (vectors inside a Packet, say) keep that capacity across reuse;
// the caller overwrites fields by assignment. Callers that hold resources
// which must not outlive the tenancy (callbacks owning shared_ptrs) reset
// those members explicitly before Release.
//
// The slab is chunked (fixed-size chunks, never reallocated), so growing it
// never move-constructs existing values — growth cost is one chunk
// allocation, not an O(n) relocation of every live callback — and the
// address of a value is stable for the whole map lifetime. Note the slot
// itself is still recycled: a pointer from Get() must not be used past the
// slot's Release, because a re-acquire overwrites the value in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace dcrd {

// Handle into a SlotMap. Default-constructed handles refer to nothing and
// are never valid for any map. 32-bit generations wrap after 4 billion
// reuses of one slot — far beyond any simulation's event count per slot.
struct SlotHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;

  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return slot != kInvalidSlot; }
  friend bool operator==(SlotHandle, SlotHandle) = default;
};

template <typename T>
class SlotMap {
 public:
  SlotMap() = default;
  SlotMap(const SlotMap&) = delete;
  SlotMap& operator=(const SlotMap&) = delete;
  // Chunks are raw storage; values are placement-constructed the first
  // time their slot is acquired (not when the chunk is allocated — a
  // simulation that churns schedulers would otherwise pay a full-slab
  // default-construction sweep per instance) and destroyed here, where
  // every slot below the high-water mark holds a constructed value.
  ~SlotMap() {
    for (std::size_t slot = 0; slot < meta_.size(); ++slot) {
      Value(slot)->~T();
    }
  }

  // Number of live (acquired) slots.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  // Slab capacity (live + free slots); monotone over the map's lifetime.
  [[nodiscard]] std::size_t slab_size() const { return meta_.size(); }

 private:
  // The value living in `slot` (which must have been acquired at least
  // once, so its T is constructed).
  [[nodiscard]] T* Value(std::size_t slot) {
    return reinterpret_cast<T*>(chunks_[slot >> kChunkShift].get()) +
           (slot & kChunkMask);
  }

 public:

  // Acquires a slot and returns its handle. The value is recycled from the
  // slot's previous tenant (or default-constructed on first use); the
  // caller overwrites it via Get().
  SlotHandle Acquire() {
    std::uint32_t slot;
    if (free_head_ != SlotHandle::kInvalidSlot) {
      slot = free_head_;
      free_head_ = meta_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(meta_.size());
      DCRD_CHECK(slot != SlotHandle::kInvalidSlot) << "slot map exhausted";
      if ((slot >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
            kChunkSize * sizeof(T)));
      }
      meta_.push_back(Meta{1, SlotHandle::kInvalidSlot, false});
      ::new (static_cast<void*>(Value(slot))) T();
    }
    Meta& meta = meta_[slot];
    DCRD_CHECK(!meta.live);
    meta.live = true;
    ++live_;
    return SlotHandle{slot, meta.generation};
  }

  // Acquire + Get fused: also hands back the value pointer, skipping the
  // revalidation a separate Get would repeat. The scheduler's schedule path
  // runs this once per event.
  SlotHandle Acquire(T** value) {
    const SlotHandle handle = Acquire();
    *value = Value(handle.slot);
    return handle;
  }

  // Hints the prefetcher at a handle's metadata and value lines: callers
  // that stage a handle for imminent dispatch overlap the (often cold)
  // loads with their staging bookkeeping.
  void Prefetch(SlotHandle handle) {
    if (handle.slot >= meta_.size()) return;
    __builtin_prefetch(&meta_[handle.slot]);
    __builtin_prefetch(Value(handle.slot));
  }

  // The value for a live handle; nullptr when the handle is stale (its slot
  // was released, possibly re-acquired by a newer tenant) or empty.
  [[nodiscard]] T* Get(SlotHandle handle) {
    if (handle.slot >= meta_.size()) return nullptr;
    const Meta& meta = meta_[handle.slot];
    if (!meta.live || meta.generation != handle.generation) return nullptr;
    return Value(handle.slot);
  }
  [[nodiscard]] const T* Get(SlotHandle handle) const {
    return const_cast<SlotMap*>(this)->Get(handle);
  }

  // Visits the handle of every live slot in slot order. The callback must
  // not Acquire or Release on this map — callers that need to mutate
  // (fail-fast sweeps) collect the handles first and act afterwards, when
  // a handle gone stale in the meantime is rejected by Get as usual.
  template <typename Fn>
  void ForEachLiveHandle(Fn&& fn) const {
    std::size_t remaining = live_;
    for (std::uint32_t slot = 0;
         remaining > 0 && slot < static_cast<std::uint32_t>(meta_.size());
         ++slot) {
      if (!meta_[slot].live) continue;
      --remaining;
      fn(SlotHandle{slot, meta_[slot].generation});
    }
  }

  // Renews a live handle and returns its value in one metadata access:
  // bumps the generation in place, so every outstanding handle to the slot
  // goes stale while the slot stays live and its value untouched, stores
  // the renewed handle in *renewed, and returns the value pointer. The
  // scheduler's dispatch loop runs this once per event, so a re-entrant
  // Cancel cannot destroy the running callback. Dies on a stale handle.
  T* BeginDispatch(SlotHandle handle, SlotHandle* renewed) {
    DCRD_CHECK(handle.slot < meta_.size()) << "dispatching a null handle";
    Meta& meta = meta_[handle.slot];
    DCRD_CHECK(meta.live && meta.generation == handle.generation)
        << "dispatching a stale handle";
    ++meta.generation;
    *renewed = SlotHandle{handle.slot, meta.generation};
    return Value(handle.slot);
  }

  // Releases a live handle's slot back to the free list, bumping the
  // generation so every outstanding handle to it goes stale. Returns false
  // (and does nothing) when the handle is already stale. The value is kept
  // constructed for recycling — see the header comment.
  bool Release(SlotHandle handle) {
    if (Get(handle) == nullptr) return false;
    ReleaseLive(handle);
    return true;
  }

  // Release for a handle the caller has already proven live (e.g. the
  // renewed handle from BeginDispatch, which no one else can have released
  // in the meantime): skips the staleness probe, dies if the claim is
  // wrong.
  void ReleaseLive(SlotHandle handle) {
    DCRD_CHECK(handle.slot < meta_.size());
    Meta& meta = meta_[handle.slot];
    DCRD_CHECK(meta.live && meta.generation == handle.generation)
        << "releasing a stale handle";
    meta.live = false;
    ++meta.generation;
    meta.next_free = free_head_;
    free_head_ = handle.slot;
    DCRD_CHECK(live_ > 0);
    --live_;
  }

 private:
  struct Meta {
    std::uint32_t generation = 1;  // 0 is reserved for null handles
    std::uint32_t next_free = SlotHandle::kInvalidSlot;
    bool live = false;
  };

  // 1024 values per chunk: large enough that chunk allocations vanish past
  // warm-up, small enough that a sparse map doesn't overcommit.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<Meta> meta_;
  std::uint32_t free_head_ = SlotHandle::kInvalidSlot;
  std::size_t live_ = 0;
};

}  // namespace dcrd
