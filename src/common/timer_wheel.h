// Hierarchical timer wheel: the scheduler's event queue.
//
// A four-level, 2048-slot-per-level wheel over the simulator's microsecond
// ticks (the structure lokinet/i2pd run for their RTO and reconnect
// timers). Level 0 buckets are exact microsecond ticks; level L buckets
// span 2048^L ticks. An event goes into the *lowest* level whose current
// rotation contains its expiry — equivalently, the lowest L where the
// expiry shares the clock's bit prefix above the level's 11 slot bits — so
// insert, cancel-by-staleness and advance are all O(1), with no comparison
// sorting anywhere. The wide levels are deliberate: level 1 alone spans
// ~4.2 simulated seconds, so the RTO/probe/epoch population (tens of
// microseconds to a few seconds out) pays exactly one cascade hop before
// dispatch, and the per-level occupancy bitmap keeps the wider slot scans
// at a handful of 64-bit word loads. Together the four levels index every
// tick in [0, 2^44) us (~203 simulated days) — absolute, not relative to
// the clock — which spans every time the scheduler's canonical key can
// encode, so there is no overflow tier: a tick outside [current(), 2^44)
// is a caller bug and fails a check.
//
// Determinism contract (load-bearing — the figure byte-identity gate sits
// on it): every entry carries a canonical ordering key (k1, k2) that is a
// pure function of the event's content, not of insertion order (see
// event/scheduler.h). Entries of one exact tick must be yielded in
// ascending key order. Buckets are appended FIFO, which keeps the common
// case — keys arriving already ordered, because most events are keyed at
// their scheduling time — free; PopNext sorts the detached level-0 run only
// when an entry landed behind a larger key (same-tick runs are one to a
// handful of entries, so the occasional sort is a few compares on a scratch
// index vector with retained capacity). PopNext enforces strict (tick, k1,
// k2) monotonicity per yield — a violated contract fails loudly rather than
// silently reordering a figure run.
//
// Limit-bounded draining: PopNextBefore(limit) refuses to detach a level-0
// bucket or cascade into a block at or past `limit`, so the clock stays
// below it. The scheduler's RunUntil drains to deadline + 1 this way, so a
// later insert at the deadline never lands behind the clock or into a
// bucket that is mid-yield.
//
// Memory: nodes live in fixed-size pooled slabs recycled through a free
// list — slab growth never relocates live nodes (no vector-doubling copy),
// and cascading relinks nodes between buckets without touching the pool, so
// the wheel performs zero heap allocations once the pool has grown to the
// simulation's in-flight high-water mark (enforced by alloc_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace dcrd {

template <typename Payload>
class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 11;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  // Ticks the levels index: [0, kHorizon) = [0, 2^44).
  static constexpr std::int64_t kHorizon = std::int64_t{1}
                                           << (kSlotBits * kLevels);

  struct Entry {
    std::int64_t at = 0;
    std::uint64_t k1 = 0;  // canonical ordering key, major word
    std::uint64_t k2 = 0;  // canonical ordering key, minor word
    Payload payload{};
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::int64_t current() const { return current_; }

  // Inserts an entry expiring at tick `at` in [current(), 2^44), carrying
  // its canonical ordering key (k1, k2).
  void Insert(std::int64_t at, std::uint64_t k1, std::uint64_t k2,
              const Payload& payload) {
    DCRD_CHECK(at >= current_ && at < kHorizon)
        << "tick " << at << " outside wheel range [" << current_
        << ", 2^44)";
    // LevelFor inlined: the range check above already bounds the level.
    const std::uint64_t diff = static_cast<std::uint64_t>(at ^ current_);
    const int level =
        diff == 0 ? 0 : (63 - __builtin_clzll(diff)) / kSlotBits;
    const std::uint32_t node = AcquireNode();
    Node& n = NodeAt(node);
    n.at = at;
    n.k1 = k1;
    n.k2 = k2;
    n.payload = payload;
    n.next = kNil;
    Link(level, SlotOf(at, level), node);
    ++size_;
  }

  // Moves an empty wheel's clock to `tick` and forgets the last yielded key,
  // so the next insert may land anywhere at or after `tick`. Stale entries
  // can drain the wheel past its owner's clock; this hands the gap back.
  void ResetClock(std::int64_t tick) {
    DCRD_CHECK(empty()) << "ResetClock over " << size_ << " pending entries";
    current_ = tick;
    last_at_ = tick - 1;
    last_k1_ = 0;
    last_k2_ = 0;
  }

  // Yields the next pending entry in (tick, k1, k2) order, advancing the
  // clock — cascading higher-level buckets down as rotation boundaries are
  // crossed — as needed. Returns false when the wheel is empty. The common
  // case (the level-0 bucket detached by the previous call still has
  // entries, or the very next slot is occupied) is a handful of loads. The
  // node is freed before returning, so a same-tick re-insert made by the
  // caller reuses it without growing the pool; such re-inserts land in the
  // (already detached) current slot's bucket and are yielded after the
  // detached run — correct, because an event created during the tick's own
  // dispatch carries a key that sorts after every pending entry of that
  // tick (its scheduling time IS the tick; see event/scheduler.h).
  bool PopNext(Entry* out) { return PopNextBefore(INT64_MAX, out); }

  // PopNext, refusing to advance into ticks >= `limit`: no bucket at or
  // past the limit is detached and no cascade enters a block starting at or
  // past it, so ticks from `limit` on stay insertable. Returns false when
  // nothing strictly before `limit` is pending — the clock then rests
  // strictly below `limit`.
  bool PopNextBefore(std::int64_t limit, Entry* out) {
    while (cursor_ == kNil) {
      if (size_ == 0) return false;
      // Level 0: the slot holding current() is still eligible (zero-delay
      // schedules land there); higher levels exclude the clock's own slot,
      // which by the cascade invariant is already empty.
      const int slot0 = FindOccupied(0, static_cast<std::uint32_t>(
                                            current_ & (kSlots - 1)));
      if (slot0 >= 0) {
        const std::int64_t tick =
            (current_ & ~static_cast<std::int64_t>(kSlots - 1)) | slot0;
        if (tick >= limit) return false;
        current_ = tick;
        cursor_ = Detach(0, static_cast<std::uint32_t>(slot0));
        SortCursorRun();
        break;
      }
      bool cascaded = false;
      for (int level = 1; level < kLevels; ++level) {
        const std::uint32_t slot = SlotOf(current_, level);
        const int next = FindOccupied(level, slot + 1);
        if (next < 0) continue;
        // Enter the bucket's block: move the clock to the block start and
        // relink every entry into its (strictly lower) new level.
        const std::int64_t block =
            ~((static_cast<std::int64_t>(1) << (kSlotBits * (level + 1))) -
              1);
        const std::int64_t block_start =
            (current_ & block) |
            (static_cast<std::int64_t>(next) << (kSlotBits * level));
        if (block_start >= limit) return false;
        current_ = block_start;
        Cascade(level, static_cast<std::uint32_t>(next));
        cascaded = true;
        break;
      }
      DCRD_CHECK(cascaded) << "non-empty wheel with no reachable bucket";
    }
    const std::uint32_t node = cursor_;
    Node& n = NodeAt(node);
    out->at = n.at;
    out->k1 = n.k1;
    out->k2 = n.k2;
    out->payload = n.payload;
    cursor_ = n.next;
    n.next = free_head_;
    free_head_ = node;
    DCRD_CHECK(size_ > 0);
    --size_;
    // The determinism contract, enforced instead of assumed: entries must
    // come out in strictly ascending (tick, k1, k2) order. Fails loudly
    // rather than silently reordering a figure run.
    DCRD_CHECK(out->at > last_at_ ||
               (out->at == last_at_ &&
                (out->k1 > last_k1_ ||
                 (out->k1 == last_k1_ && out->k2 > last_k2_))))
        << "intra-tick key order violated at tick " << out->at;
    last_at_ = out->at;
    last_k1_ = out->k1;
    last_k2_ = out->k2;
    return true;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    std::int64_t at;
    std::uint64_t k1;
    std::uint64_t k2;
    Payload payload;
    std::uint32_t next;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] static std::uint32_t SlotOf(std::int64_t at, int level) {
    return static_cast<std::uint32_t>(at >> (kSlotBits * level)) &
           (kSlots - 1);
  }

  // Lowest level whose current rotation contains `at`: the expiry and the
  // clock agree on every bit above the level's slot field. One xor + bit
  // scan instead of a per-level loop — this runs once per insert and once
  // per cascade relink.
  [[nodiscard]] int LevelFor(std::int64_t at) const {
    const std::uint64_t diff =
        static_cast<std::uint64_t>(at ^ current_);
    if (diff == 0) return 0;
    const int high = 63 - __builtin_clzll(diff);
    const int level = high / kSlotBits;
    DCRD_CHECK(level < kLevels)
        << "tick " << at << " outside horizon @" << current_;
    return level;
  }

  [[nodiscard]] Node& NodeAt(std::uint32_t node) {
    return pool_[node >> kPoolChunkShift][node & (kPoolChunkSize - 1)];
  }

  [[nodiscard]] const Node& NodeAt(std::uint32_t node) const {
    return pool_[node >> kPoolChunkShift][node & (kPoolChunkSize - 1)];
  }

  // Restores ascending (k1, k2) order over the just-detached level-0 run.
  // Most events are keyed at their scheduling time, so appends arrive in
  // key order and the single ordered-check pass usually exits without
  // sorting. Not always: a hop ACK is keyed at its future landing instant
  // (OverlayNetwork::ResolveAckAt), so an event scheduled *after* the ACK
  // but before that instant carries a smaller key and can land in the same
  // tick behind it. Such runs pay the sort — 2.7% of detached same-tick
  // runs in a fig2 sweep at --reps 1 --seconds 120. Sorting an index vector
  // (retained capacity) and relinking keeps the node pool untouched. Keys
  // are unique — (k1, k2) encodes the event's origin and a per-origin
  // counter — so plain sort suffices.
  void SortCursorRun() {
    bool ordered = true;
    for (std::uint32_t node = cursor_; node != kNil;) {
      const std::uint32_t next = NodeAt(node).next;
      if (next != kNil) {
        const Node& a = NodeAt(node);
        const Node& b = NodeAt(next);
        if (a.k1 > b.k1 || (a.k1 == b.k1 && a.k2 > b.k2)) {
          ordered = false;
          break;
        }
      }
      node = next;
    }
    if (ordered) return;
    sort_scratch_.clear();
    for (std::uint32_t node = cursor_; node != kNil;
         node = NodeAt(node).next) {
      sort_scratch_.push_back(node);
    }
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              [this](std::uint32_t x, std::uint32_t y) {
                const Node& a = NodeAt(x);
                const Node& b = NodeAt(y);
                return a.k1 < b.k1 || (a.k1 == b.k1 && a.k2 < b.k2);
              });
    for (std::size_t i = 0; i + 1 < sort_scratch_.size(); ++i) {
      NodeAt(sort_scratch_[i]).next = sort_scratch_[i + 1];
    }
    NodeAt(sort_scratch_.back()).next = kNil;
    cursor_ = sort_scratch_.front();
  }

  std::uint32_t AcquireNode() {
    if (free_head_ != kNil) {
      const std::uint32_t node = free_head_;
      free_head_ = NodeAt(node).next;
      return node;
    }
    const std::uint32_t node = pool_size_;
    if ((node >> kPoolChunkShift) == pool_.size()) {
      pool_.push_back(std::make_unique_for_overwrite<Node[]>(kPoolChunkSize));
    }
    ++pool_size_;
    return node;
  }

  void Link(int level, std::uint32_t slot, std::uint32_t node) {
    Bucket& bucket = buckets_[level][slot];
    if (bucket.head == kNil) {
      bucket.head = node;
    } else {
      NodeAt(bucket.tail).next = node;
    }
    bucket.tail = node;
    occupied_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
    summary_[level] |= std::uint32_t{1} << (slot >> 6);
  }

  // First occupied slot >= from at `level`, or -1. The per-level summary
  // word (bit w = occupancy word w nonempty) turns the sparse-wheel scan —
  // up to 32 word loads when 10k timers spread over a million ticks —
  // into two bit scans.
  [[nodiscard]] int FindOccupied(int level, std::uint32_t from) const {
    if (from >= kSlots) return -1;
    std::uint32_t word = from >> 6;
    std::uint64_t bits =
        occupied_[level][word] & (~std::uint64_t{0} << (from & 63));
    if (bits == 0) {
      const std::uint32_t later =
          summary_[level] & (~std::uint32_t{1} << word);
      if (later == 0) return -1;
      word = static_cast<std::uint32_t>(__builtin_ctz(later));
      bits = occupied_[level][word];
    }
    return static_cast<int>(
        word * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits)));
  }

  // Detaches a bucket's list and returns its head; clears the occupancy bit.
  std::uint32_t Detach(int level, std::uint32_t slot) {
    Bucket& bucket = buckets_[level][slot];
    const std::uint32_t head = bucket.head;
    bucket.head = bucket.tail = kNil;
    std::uint64_t& word = occupied_[level][slot >> 6];
    word &= ~(std::uint64_t{1} << (slot & 63));
    if (word == 0) {
      summary_[level] &= ~(std::uint32_t{1} << (slot >> 6));
    }
    return head;
  }

  // Relinks every entry of a level>=1 bucket into its new (lower) level.
  // Walking head->tail preserves FIFO order in every target bucket, which
  // preserves the common already-key-ordered case (see the header's
  // determinism contract); SortCursorRun repairs the rest at detach.
  void Cascade(int level, std::uint32_t slot) {
    std::uint32_t node = Detach(level, slot);
    while (node != kNil) {
      const std::uint32_t next = NodeAt(node).next;
      NodeAt(node).next = kNil;
      const int new_level = LevelFor(NodeAt(node).at);
      DCRD_CHECK(new_level < level);
      Link(new_level, SlotOf(NodeAt(node).at, new_level), node);
      node = next;
    }
  }

  static_assert(kSlots / 64 <= 32, "summary word must cover a level");

  Bucket buckets_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels][kSlots / 64] = {};
  // Bit w set iff occupied_[level][w] != 0: FindOccupied's fast path.
  std::uint32_t summary_[kLevels] = {};
  // 1024 nodes per slab: growth allocates a slab, never relocates nodes.
  static constexpr std::uint32_t kPoolChunkShift = 10;
  static constexpr std::uint32_t kPoolChunkSize = 1u << kPoolChunkShift;
  std::vector<std::unique_ptr<Node[]>> pool_;
  std::uint32_t pool_size_ = 0;  // nodes handed out (free or linked)
  std::uint32_t free_head_ = kNil;
  // Detached level-0 list currently being yielded by PopNext. Counted in
  // size_ until yielded (so empty()/ResetClock stay honest about them).
  std::uint32_t cursor_ = kNil;
  std::size_t size_ = 0;
  std::int64_t current_ = 0;
  // Last yielded (tick, k1, k2): backs the strict-order check in PopNext.
  std::int64_t last_at_ = -1;
  std::uint64_t last_k1_ = 0;
  std::uint64_t last_k2_ = 0;
  // Index scratch for SortCursorRun; capacity retained across sorts.
  std::vector<std::uint32_t> sort_scratch_;
};

}  // namespace dcrd
