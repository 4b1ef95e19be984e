// Per-message router state that lives exactly as long as its packets.
//
// DCRD's responsibility keys and the baselines' routes are kept as one
// record per live message, found by message id. The Publish that opens a
// record holds a reference while it sends; each copy handed to the
// HopTransport holds one, passed as its owner tag, until the transport
// retires it, which is after the copy's last arrival handler has returned;
// DCRD's open episodes and parked persistence retries hold one each. When
// the last goes, no packet of the message can reach a broker again, so
// releasing the record forgets nothing a later arrival could ask for.
// Records are pooled: a released one keeps its payload's capacity.
#pragma once

#include <cstdint>

#include "common/dense_map.h"
#include "common/slot_map.h"

namespace dcrd {

// `Payload::clear()` must keep its capacity.
template <typename Payload>
class MessageRecords {
 public:
  // Opens a fresh message's record with an empty payload and one
  // reference, the caller's. A message id has at most one live record.
  SlotHandle Open(std::uint64_t message_id) {
    const auto [handle, inserted] = handle_of_.TryEmplace(message_id);
    DCRD_CHECK(inserted) << "duplicate message id " << message_id;
    Record* record = nullptr;
    *handle = records_.Acquire(&record);
    record->payload.clear();
    record->message_id = message_id;
    record->refs = 1;
    return *handle;
  }
  // The record of a message some packet of which is still around.
  [[nodiscard]] SlotHandle Live(std::uint64_t message_id) const {
    const SlotHandle* handle = handle_of_.Find(message_id);
    DCRD_CHECK(handle != nullptr)
        << "no live record for message " << message_id;
    return *handle;
  }
  Payload& Get(SlotHandle handle) { return records_.Get(handle)->payload; }
  void Retain(SlotHandle handle) { ++records_.Get(handle)->refs; }
  // Drops one reference; the last one recycles the slot.
  void Release(SlotHandle handle) {
    Record* record = records_.Get(handle);
    DCRD_CHECK(record != nullptr && record->refs > 0);
    if (--record->refs > 0) return;
    handle_of_.Erase(record->message_id);
    records_.ReleaseLive(handle);
  }
  template <typename Fn>
  void ForEachPayload(Fn&& fn) {
    records_.ForEachLiveHandle([&](SlotHandle handle) { fn(Get(handle)); });
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  // A handle packed into the transport's owner tag and back; generations
  // start at 1, so a tag is never 0.
  [[nodiscard]] static std::uint64_t OwnerTag(SlotHandle handle) {
    return static_cast<std::uint64_t>(handle.slot) << 32 | handle.generation;
  }
  [[nodiscard]] static SlotHandle FromTag(std::uint64_t owner) {
    return SlotHandle{static_cast<std::uint32_t>(owner >> 32),
                      static_cast<std::uint32_t>(owner)};
  }

 private:
  struct Record {
    Payload payload;
    std::uint64_t message_id = 0;
    std::uint32_t refs = 0;
  };
  SlotMap<Record> records_;
  DenseIdMap<SlotHandle> handle_of_;
};

}  // namespace dcrd
